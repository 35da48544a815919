(** Packet-level simulation of simultaneous per-part flooding under shared
    edge capacity — the random-delays scheduling of [LMR94, Gha15, HHW19]
    that turns a (c,d)-shortcut into an [O(c + d·log n)]-round part-wise
    aggregation.

    Every part [i] floods an idempotent aggregate (minimum) over its
    shortcut subgraph [S_i = G[P_i] + H_i]. The messages share edge
    capacity on {!Schedule.serve}'s loop — this is where congestion
    becomes time. The router measures the round at which every part has
    finished (each member knows its part's minimum), the figure E7
    compares against [c + d·⌈log₂ n⌉]. *)

type result = {
  rounds : int;  (** completion round of the slowest part *)
  per_part_completion : int array;
  per_part_minimum : int array;  (** the aggregate each part computed *)
  messages : int;  (** total link transmissions *)
  max_queue : int;  (** peak backlog on any edge-direction *)
}

val route :
  ?bandwidth:int ->
  ?max_delay:int ->
  ?max_rounds:int ->
  ?policy:Schedule.policy ->
  ?tracer:Lcs_congest.Trace.tracer ->
  Lcs_util.Rng.t ->
  Lcs_shortcut.Shortcut.t ->
  values:int array ->
  result
(** [route rng shortcut ~values] floods [values.(v)] from every assigned
    vertex [v] through its part's shortcut subgraph. [max_delay] defaults
    to the shortcut's measured congestion (the LMR window); [policy]
    defaults to {!Schedule.Random_delay}; [bandwidth] defaults to 1
    message per edge-direction per round; [max_rounds] (default 1_000_000)
    guards against disconnected shortcut subgraphs. Raises [Failure] if
    some part cannot complete (its subgraph is disconnected — impossible
    for shortcuts built by this repository).

    [tracer] receives {!Schedule.serve}'s events, in the vocabulary of a
    {!Lcs_congest.Simulator} run (phase ["pa.flood"]), so the random-delay
    schedule's load spreading is observable with the same
    {!Lcs_congest.Trace.Profile} tooling. *)
