(** Scheduling policies for the shared-edge packet queues — the ablation
    axis for the random-delays technique [LMR94, Gha15, HHW19].

    Both part-wise routers run on the serving loop below ({!serve}),
    which serves each edge-direction queue by ascending priority (FIFO
    among equals). The policy decides the priority a part's packets
    carry:

    - [Random_delay]: a uniform delay in [0, max_delay) per part — the
      technique the paper's O(c + d log n) aggregation bound rests on;
    - [Fifo]: no priorities, pure arrival order — the natural baseline;
    - [Static_order]: parts served in index order — an adversarial
      stand-in where one part can starve behind all lower-indexed ones.

    {b The O(c + d log n) contract.} For a shortcut with congestion [c]
    and dilation [d], drawing each part's delay uniformly from
    [0, max_delay) with [max_delay = Θ(c)] makes every edge's expected
    per-round load O(1 + c/max_delay) = O(1), so with high probability a
    packet waits O(log n) rounds per hop and the whole part-wise
    aggregation completes in O(c + d log n) rounds [LMR94]. The routers
    ([Packet_router], [Tree_router]) realize the delays as static
    priorities rather than literal waiting: serving queues in ascending
    delay order is equivalent to each part sitting out its delay, but
    never leaves an edge idle, so measured completion times are at most
    the scheduled ones. [Fifo] and [Static_order] deliberately break the
    argument's load-spreading step; experiment E14 measures the gap. *)

type policy = Random_delay | Fifo | Static_order

val delays : policy -> Lcs_util.Rng.t -> parts:int -> max_delay:int -> int array
(** Per-part priorities realizing the policy. *)

val epochs : max_delay:int -> rounds:int -> (int * int) list
(** Partition rounds [1..rounds] into consecutive inclusive [(first,
    last)] epochs of [max 1 max_delay] rounds (the final one may be
    shorter). An epoch is the window within which every scheduled start
    round falls, so analyses treat each one as a "shifted copy" of the
    flooding. Empty when [rounds = 0]. The observability layer attributes
    a traced run's per-round load curve to these windows. *)

val to_string : policy -> string

(** {1 The serving loop}

    {!Packet_router} and {!Tree_router} run on this one loop. Messages
    queue per edge-direction. Each round serves up to [bandwidth]
    messages from every backlogged queue, by ascending part priority and
    FIFO among equals, and only then applies the round's arrivals, which
    may queue more. The queued payload ['a] is the router's own entry. A
    part completes in the round its last member learns its answer; the
    run ends when every part has. *)

type 'a queues
(** The edge-direction queues and completion counts of one run. *)

type served = {
  rounds : int;  (** completion round of the slowest part *)
  messages : int;  (** link transmissions *)
  max_queue : int;  (** peak backlog on any edge-direction *)
  per_part_completion : int array;
}

val queues :
  tracer:Lcs_congest.Trace.tracer option ->
  max_delay:int option ->
  policy ->
  Lcs_util.Rng.t ->
  Lcs_shortcut.Shortcut.t ->
  'a queues
(** Empty queues over the shortcut's host. Part priorities are
    {!delays} of [policy] over [max_delay] (by default the shortcut's
    congestion; at least 1). Starts the run's {!Lcs_congest.Trace.Cause}
    ids: the router is its own message source. *)

val push : 'a queues -> part:int -> edge:int -> from:int -> 'a -> unit
(** Queue an entry of [part] on host edge [edge], in the direction
    leaving [from]. *)

val member_done : 'a queues -> int -> unit
(** [member_done q part]: one more member of [part] holds its answer, as
    of the current round (0 before {!serve}). *)

val serve :
  'a queues ->
  bandwidth:int ->
  max_rounds:int ->
  limit:string ->
  label:('a -> int * int * string) ->
  arrive:('a -> id:int -> edge:int -> dest:int -> unit) ->
  served
(** Runs rounds until every part has completed; raises [Failure limit]
    instead of starting a round beyond [max_rounds]. [arrive entry ~id
    ~edge ~dest] takes each entry delivered over [edge] to [dest]; [id]
    is the transmission's causal id (0 when untraced). With a tracer
    every round emits [Round_start] (live = incomplete parts), one 1-word
    [Send] per transmission ([label entry] gives its part, causal parent
    or 0, and phase), and [Round_end] with the round's highest per-queue
    serve count. *)
