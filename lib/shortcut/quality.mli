(** Measuring shortcut quality: congestion, dilation, block number.

    Congestion (Def 2.2 II): the maximum, over host edges, of the number of
    parts whose [H_i] contains the edge. Dilation (Def 2.2 I): the maximum,
    over covered parts, of the diameter of [G[P_i] + H_i]. Quality = their
    sum. For tree-restricted shortcuts the block number (Def 2.3) of part
    [P_i] is the number of connected components of [(P_i ∪ V(H_i), H_i)];
    Observation 2.6 bounds dilation by [b(2D+1)], which the tests verify
    against these measurements.

    Dilation is exact unless some part's subgraph exceeds [exact_limit]
    vertices; then that part reports a double-sweep lower bound, the
    report's [dilation_exact] is [false], {!pp_report} prints
    [dilation>=], and {!dilation_bound} is the certified upper bound to
    size anything from. *)

type report = {
  congestion : int;
  dilation : int;
  dilation_exact : bool;
      (** [true] when every covered part's diameter was computed exactly;
          [false] when some part's subgraph exceeded [exact_limit], so
          [dilation] (and [quality]) is a lower bound — {!dilation_bound}
          gives a certified upper bound in that case *)
  quality : int;  (** congestion + dilation *)
  max_block_number : int;
  covered : int;  (** number of covered parts (measured parts) *)
  per_part_dilation : int array;  (** -1 for uncovered parts *)
  per_part_blocks : int array;  (** -1 for uncovered parts *)
  edge_load : int array;  (** per host edge: number of parts using it *)
}

val congestion : Shortcut.t -> int

val edge_load : Shortcut.t -> int array

val part_dilation : ?exact_limit:int -> Shortcut.t -> int -> int
(** Diameter of [G[P_i] + H_i]. Exact ({!Lcs_graph.Diameter.exact}) when
    that subgraph has at most [exact_limit] (default 4096) vertices,
    otherwise a double-sweep lower bound. Raises [Invalid_argument] if the
    subgraph is disconnected — which cannot happen for shortcuts produced
    by {!Construct}. One call takes O(n + m) host-sized scratch; {!measure}
    and {!dilation} share one scratch across all parts. *)

val dilation : ?exact_limit:int -> Shortcut.t -> int
(** Max over covered parts. Uncovered parts are skipped: a partial
    shortcut's dilation speaks only for the parts it serves. *)

val part_blocks : Shortcut.t -> int -> int
(** Block number of one part: connected components of
    [(P_i ∪ V(H_i), H_i)]. Meaningful for tree-restricted shortcuts. *)

val measure : ?exact_limit:int -> Shortcut.t -> report
(** Every figure of merit at once. [exact_limit] is {!part_dilation}'s;
    [dilation_exact] is [false] when some covered part exceeded it. *)

val dilation_bound : report -> int
(** A certified upper bound on the dilation: [dilation] when exact, else
    [2 · dilation]. Sound because each inexact part reports the largest
    eccentricity [ecc(v)] its double sweep saw, and a diameter is at most
    [2·ecc(v)] for any vertex [v]. This is what round budgets are sized
    from. *)

type part_traffic = {
  part : int;
  hi_edges : int;  (** [|H_i|] *)
  internal_edges : int;  (** host edges internal to [P_i] *)
  words : float;  (** fair share of the traced words on [G[P_i] + H_i] *)
  share : float;  (** [words] as a fraction of all traced words *)
  max_load : int;  (** worst Def 2.2 load over the part's [H_i] edges *)
}

val traffic : Shortcut.t -> edge_words:int array -> part_traffic array
(** Join a per-edge word-count array (e.g.
    [Lcs_congest.Trace.Profile.edge_words]) against the shortcut: each
    part is attributed the words on its [G[P_i] + H_i] edges, with an
    edge used by several parts split evenly among its users, so the
    attributed words sum to the words on shortcut-relevant edges. Raises
    [Invalid_argument] if the array length is not [Graph.m host]. *)

val traffic_to_json : part_traffic array -> Lcs_util.Json.t

val pp_report : Format.formatter -> report -> unit
(** One line; prints [dilation>=] and [quality>=] when the dilation is a
    lower bound ([dilation_exact = false]). *)
