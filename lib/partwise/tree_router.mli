(** Convergecast/broadcast part-wise aggregation for {e non-idempotent}
    combines (sums, counts) — the second half of Definition 2.1.

    Min/max tolerate re-delivery, so {!Packet_router} floods them; a sum
    must count every contribution exactly once, which needs a tree. For
    each part a BFS spanning tree of its shortcut subgraph
    [S_i = G[P_i] + H_i] is fixed; the aggregation then convergecasts to
    the part root and broadcasts the total back, with all parts sharing
    edge capacity on {!Schedule.serve}'s loop, like the flooding router.
    Total rounds remain [O(c + d·log n)]: each part exchanges
    exactly [2·(|S_i| - 1)] messages along its tree. *)

type result = {
  rounds : int;
  per_part_total : int array;
  per_part_completion : int array;
  messages : int;
}

val aggregate :
  ?bandwidth:int ->
  ?max_delay:int ->
  ?max_rounds:int ->
  ?tracer:Lcs_congest.Trace.tracer ->
  Lcs_util.Rng.t ->
  Lcs_shortcut.Shortcut.t ->
  values:int array ->
  combine:(int -> int -> int) ->
  identity:int ->
  result
(** [aggregate rng shortcut ~values ~combine ~identity]: every member of
    part [i] learns [fold combine identity] over the part's member values
    ([values.(v)] for [v ∈ P_i]; helper vertices of [S_i] contribute
    [identity]). [combine] must be associative and commutative.
    Raises [Failure] if some part's subgraph is disconnected.

    [tracer] receives {!Schedule.serve}'s events (phases ["router.up"]
    and ["router.down"]). *)

val sum :
  ?bandwidth:int ->
  ?tracer:Lcs_congest.Trace.tracer ->
  Lcs_util.Rng.t ->
  Lcs_shortcut.Shortcut.t ->
  values:int array ->
  result
(** [aggregate] with [( + )] and [0]. *)

val reference :
  Lcs_shortcut.Shortcut.t ->
  values:int array ->
  combine:(int -> int -> int) ->
  identity:int ->
  int array
(** Ground truth, computed centrally. *)
