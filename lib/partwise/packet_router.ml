module Graph = Lcs_graph.Graph
module Partition = Lcs_graph.Partition
module Shortcut = Lcs_shortcut.Shortcut

type result = {
  rounds : int;
  per_part_completion : int array;
  per_part_minimum : int array;
  messages : int;
  max_queue : int;
}

let route ?(bandwidth = 1) ?max_delay ?(max_rounds = 1_000_000)
    ?(policy = Schedule.Random_delay) ?tracer rng shortcut ~values =
  if bandwidth < 1 then invalid_arg "Packet_router.route: bandwidth";
  let host = Shortcut.graph shortcut in
  let partition = Shortcut.partition shortcut in
  let k = Shortcut.k shortcut in
  if Array.length values <> Graph.n host then invalid_arg "Packet_router.route: values";
  let subgraphs = Subgraphs.of_shortcut shortcut in
  let adjacency = Array.init k (Subgraphs.adjacency subgraphs) in
  (* Ground truth: a member is done once it holds its part's minimum. *)
  let target = Tree_router.reference shortcut ~values ~combine:min ~identity:max_int in
  (* Queue entries: (part, value, causal id of the arrival that queued it). *)
  let queues = Schedule.queues ~tracer ~max_delay policy rng shortcut in
  (* best.(i) : node -> current best value for part i at that node. *)
  let best = Array.init k (fun _ -> Hashtbl.create 64) in
  (* Improvement at [node] for [part]: update best, track completion,
     forward on all other S_i edges. [cause] is the id of the arriving
     message (0 for round-0 injections). *)
  let absorb part value cause node ~via =
    let tbl = best.(part) in
    let current = Hashtbl.find_opt tbl node in
    let improves = match current with None -> true | Some b -> value < b in
    if improves then begin
      Hashtbl.replace tbl node value;
      if Partition.part_of partition node = part && value = target.(part) then
        Schedule.member_done queues part;
      match Hashtbl.find_opt adjacency.(part) node with
      | None -> ()
      | Some nbrs ->
          List.iter
            (fun (e, _nbr) ->
              if e <> via then
                Schedule.push queues ~part ~edge:e ~from:node (part, value, cause))
            nbrs
    end
  in
  (* Round 0: every assigned vertex injects its own value. *)
  for v = 0 to Graph.n host - 1 do
    let part = Partition.part_of partition v in
    if part >= 0 then absorb part values.(v) 0 v ~via:(-1)
  done;
  let served =
    Schedule.serve queues ~bandwidth ~max_rounds
      ~limit:"Packet_router.route: round limit (disconnected shortcut subgraph?)"
      ~label:(fun (part, _value, cause) -> (part, cause, "pa.flood"))
      ~arrive:(fun (part, value, _cause) ~id ~edge ~dest ->
        absorb part value id dest ~via:edge)
  in
  {
    rounds = served.Schedule.rounds;
    per_part_completion = served.Schedule.per_part_completion;
    per_part_minimum = target;
    messages = served.Schedule.messages;
    max_queue = served.Schedule.max_queue;
  }
