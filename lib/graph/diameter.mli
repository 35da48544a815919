(** Graph diameter (hop metric).

    [exact] runs bounding-eccentricity sweeps (Takes & Kosters, CIKM
    2011): each BFS tightens a lower and an upper eccentricity bound on
    every vertex, and the sweeps stop once the largest lower bound meets
    the upper bound on the diameter. [estimate] uses the iterated
    double-sweep heuristic plus an eccentricity upper bound and is what
    the experiment harnesses use on large inputs. All functions raise
    [Invalid_argument] on disconnected graphs. *)

val exact : Graph.t -> int
(** The exact diameter. Sources alternate between the candidate vertex
    with the largest eccentricity upper bound and the one with the
    smallest lower bound; a vertex whose upper bound cannot exceed the
    best lower bound is dropped. Typically a small fraction of n BFS
    runs (208 of 1,296 on the largest part subgraph of a 36×36
    grid-rows shortcut); the worst case is still n BFS runs, O(n·m).
    Uses O(n + m) scratch, reused across the sweeps. *)

type bounds = { lower : int; upper : int }

val estimate : ?sweeps:int -> Graph.t -> bounds
(** Iterated double sweep: [lower] is the largest eccentricity seen, [upper]
    is twice the minimum eccentricity seen (tree-like bound). [sweeps]
    defaults to 4. On trees and many practical graphs [lower = upper]
    collapses to the exact value. *)

val of_graph : ?exact_limit:int -> Graph.t -> int
(** [exact] when [n <= exact_limit] (default 2048), otherwise the
    double-sweep lower bound, which is exact on every family the experiment
    harness generates. *)
