(** Per-part shortcut subgraphs [S_i = G[P_i] + H_i], materialized as
    adjacency maps over host vertex ids — the communication graphs that
    both aggregation engines ({!Packet_router}, {!Tree_router}) route on. *)

type t

val of_shortcut : Lcs_shortcut.Shortcut.t -> t

val adjacency : t -> int -> (int, (int * int) list) Hashtbl.t
(** [adjacency t i] maps each vertex of [S_i] to its [(edge, neighbor)]
    list. Callers must not mutate. *)

val vertices : t -> int -> int list
(** Vertices of [S_i] (members plus shortcut-edge endpoints). *)

val spanning_tree : t -> int -> root:int -> (int, int * int) Hashtbl.t
(** BFS tree of [S_i] from [root]: maps each reached vertex (except the
    root) to its [(parent_vertex, edge)]. Raises [Invalid_argument] if
    [root] is not in [S_i]. Vertices of [S_i] unreachable from [root]
    (possible only for corrupted shortcuts) are simply absent. *)
