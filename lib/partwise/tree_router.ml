module Graph = Lcs_graph.Graph
module Partition = Lcs_graph.Partition
module Shortcut = Lcs_shortcut.Shortcut

type result = {
  rounds : int;
  per_part_total : int array;
  per_part_completion : int array;
  messages : int;
}

type kind = Up | Down

(* Per-(part, vertex) aggregation state along the part's tree. *)
type cell = {
  parent : int;  (* parent vertex; -1 at the part root *)
  parent_edge : int;  (* -1 at the root *)
  mutable waiting : int;  (* children yet to report *)
  mutable acc : int;
  mutable children : int list;  (* edges to the children *)
}

let aggregate ?(bandwidth = 1) ?max_delay ?(max_rounds = 1_000_000) ?tracer rng
    shortcut ~values ~combine ~identity =
  if bandwidth < 1 then invalid_arg "Tree_router.aggregate: bandwidth";
  let host = Shortcut.graph shortcut in
  let partition = Shortcut.partition shortcut in
  let k = Shortcut.k shortcut in
  if Array.length values <> Graph.n host then invalid_arg "Tree_router.aggregate: values";
  let subgraphs = Subgraphs.of_shortcut shortcut in
  (* Build each part's tree and cells. *)
  let cells : (int, cell) Hashtbl.t array = Array.init k (fun _ -> Hashtbl.create 32) in
  for i = 0 to k - 1 do
    let members = Partition.members partition i in
    let root = members.(0) in
    let parents = Subgraphs.spanning_tree subgraphs i ~root in
    let vertices = Subgraphs.vertices subgraphs i in
    (* Any S_i vertex unreachable from the root means a corrupted
       shortcut; members must always be reachable. *)
    List.iter
      (fun v ->
        let parent, parent_edge =
          match Hashtbl.find_opt parents v with Some pe -> pe | None -> (-1, -1)
        in
        if v = root || parent >= 0 then
          Hashtbl.replace cells.(i) v
            { parent; parent_edge; waiting = 0; acc = identity; children = [] }
        else if Partition.part_of partition v = i then
          failwith "Tree_router: part subgraph is disconnected")
      vertices;
    (* Children lists and member contributions. *)
    Hashtbl.iter
      (fun v cell ->
        if cell.parent >= 0 then begin
          let pcell = Hashtbl.find cells.(i) cell.parent in
          pcell.children <- cell.parent_edge :: pcell.children;
          pcell.waiting <- pcell.waiting + 1
        end;
        if Partition.part_of partition v = i then cell.acc <- combine cell.acc values.(v))
      cells.(i)
  done;
  (* Queue entries: (part, kind, value, causal id of the arrival that
     queued them, 0 = none). *)
  let queues = Schedule.queues ~tracer ~max_delay Schedule.Random_delay rng shortcut in
  let send part kind value cause e ~from =
    Schedule.push queues ~part ~edge:e ~from (part, kind, value, cause)
  in
  let per_part_total = Array.make k identity in
  (* [cause] is the causal id of the message whose arrival triggered this
     step (0 for the spontaneous round-0 leaf fires). *)
  let deliver_down part value cause node =
    (* A member is done once the Down total reaches it. *)
    if Partition.part_of partition node = part then Schedule.member_done queues part;
    let cell = Hashtbl.find cells.(part) node in
    List.iter (fun e -> send part Down value cause e ~from:node) cell.children
  in
  let rec try_send_up part cause node =
    let cell = Hashtbl.find cells.(part) node in
    if cell.waiting = 0 then
      if cell.parent < 0 then begin
        (* Root: total known; start the downward broadcast. *)
        per_part_total.(part) <- cell.acc;
        deliver_down part cell.acc cause node
      end
      else send part Up cell.acc cause cell.parent_edge ~from:node
  and absorb_up part value cause node =
    let cell = Hashtbl.find cells.(part) node in
    cell.acc <- combine cell.acc value;
    cell.waiting <- cell.waiting - 1;
    if cell.waiting = 0 then try_send_up part cause node
  in
  (* Round 0: leaves fire (a childless root completes immediately). *)
  for i = 0 to k - 1 do
    Hashtbl.iter (fun v cell -> if cell.waiting = 0 then try_send_up i 0 v) cells.(i)
  done;
  let served =
    Schedule.serve queues ~bandwidth ~max_rounds ~limit:"Tree_router: round limit"
      ~label:(fun (part, kind, _value, cause) ->
        (part, cause, match kind with Up -> "router.up" | Down -> "router.down"))
      ~arrive:(fun (part, kind, value, _cause) ~id ~edge:_ ~dest ->
        match kind with
        | Up -> absorb_up part value id dest
        | Down -> deliver_down part value id dest)
  in
  {
    rounds = served.Schedule.rounds;
    per_part_total;
    per_part_completion = served.Schedule.per_part_completion;
    messages = served.Schedule.messages;
  }

let sum ?bandwidth ?tracer rng shortcut ~values =
  aggregate ?bandwidth ?tracer rng shortcut ~values ~combine:( + ) ~identity:0

let reference shortcut ~values ~combine ~identity =
  let partition = Shortcut.partition shortcut in
  Array.init (Shortcut.k shortcut) (fun i ->
      Array.fold_left
        (fun acc v -> combine acc values.(v))
        identity
        (Partition.members partition i))
