module Graph = Lcs_graph.Graph
module Partition = Lcs_graph.Partition
module Shortcut = Lcs_shortcut.Shortcut
module Quality = Lcs_shortcut.Quality
module Simulator = Lcs_congest.Simulator
module Trace = Lcs_congest.Trace
module Pqueue = Lcs_util.Pqueue
module Obs = Lcs_obs.Obs
module Fault = Lcs_congest.Fault
module Reliable = Lcs_congest.Reliable
module Outcome = Lcs_congest.Outcome

type result = {
  minima : int array;
  rounds : int;
  completion_round : int;
  messages : int;
  stats : Simulator.stats;
}

type report = {
  minima : int array;
      (** per part: the minimum over its surviving members' values — the
          reference a degraded run is held to *)
  diverged : int list;  (** parts with a surviving member disagreeing *)
  completion_round : int;
  ostats : Simulator.stats;
  retransmissions : int;
}

(* (part, value, causal id of the arrival that queued it — 0 for round-0
   self-injections). The cause is simulation metadata, not wire payload, so
   msg_words stays 1. *)
type msg = int * int * int

(* One node's PA state, updated in place. The node serves the parts in
   [parts] (its slots); [best] and [known] are indexed by slot. *)
type node_state = {
  mutable clock : int;
  mutable last_improved : int;  (* as a part member *)
  mutable queued : int;  (* messages waiting in [queues] *)
  parts : int array;  (* ascending *)
  part_ports : int array array;
      (* per slot: the ports that part's subgraph uses at this node *)
  best : int array;  (* per slot: best value seen, valid where [known] *)
  known : bool array;
  queues : msg Pqueue.t array;  (* per port, by delay *)
  idle : node_state * msg Simulator.outbox;
      (* the result of an activation that has nothing to do *)
}

let slot_of st part =
  let rec find j =
    if j = Array.length st.parts then -1 else if st.parts.(j) = part then j else find (j + 1)
  in
  find 0

(* [dilation] is [Some] exactly when the full quality measurement ran:
   its exact per-part dilation is the costly part, so it runs only when it
   sizes the budget (no [?budget]) or [with_dilation] asks for it. *)
let setup ?budget ~with_dilation ~reliable rng shortcut ~values =
  let host = Shortcut.graph shortcut in
  let partition = Shortcut.partition shortcut in
  let k = Shortcut.k shortcut in
  let n = Graph.n host in
  if Array.length values <> n then invalid_arg "Sim_aggregate.minimum: values";
  let quality =
    if budget = None || with_dilation then Some (Quality.measure shortcut) else None
  in
  let congestion =
    match quality with
    | Some r -> r.Quality.congestion
    | None -> Quality.congestion shortcut
  in
  let budget =
    match budget with
    | Some b -> b
    | None ->
        let r = Option.get quality in
        let bound =
          Aggregate.bound ~congestion ~dilation:(max 1 (Quality.dilation_bound r)) ~n
        in
        (* The ARQ roughly triples per-hop latency (data + ack round
           trips), so the reliable path gets a proportionally larger
           round budget unless the caller pins one. *)
        (if reliable then 8 else 1) * ((4 * bound) + 32)
  in
  let subgraphs = Subgraphs.of_shortcut shortcut in
  let delay =
    Schedule.delays Schedule.Random_delay rng ~parts:k ~max_delay:congestion
  in
  (* For each vertex: the parts it serves (its slots, ascending) and, per
     slot, the ports that part's subgraph uses there. Port = index into the
     vertex's host adjacency, as the simulator addresses links. Every part
     member is a vertex of its part's subgraph, so its own part has a slot. *)
  let port_of_edge =
    Array.init n (fun v ->
        let tbl = Hashtbl.create 8 in
        Graph.Row.iteri (Graph.ports host v) (fun port _w e ->
            Hashtbl.replace tbl e port);
        tbl)
  in
  let part_ports : (int * int array) list array = Array.make n [] in
  for i = k - 1 downto 0 do
    Hashtbl.iter
      (fun v nbrs ->
        let ports =
          Array.of_list (List.map (fun (e, _w) -> Hashtbl.find port_of_edge.(v) e) nbrs)
        in
        part_ports.(v) <- (i, ports) :: part_ports.(v))
      (Subgraphs.adjacency subgraphs i)
  done;
  let enqueue st slot value cause ~skip_port =
    let part = st.parts.(slot) in
    Array.iter
      (fun port ->
        if port <> skip_port then begin
          Pqueue.push st.queues.(port) ~priority:delay.(part) (part, value, cause);
          st.queued <- st.queued + 1
        end)
      st.part_ports.(slot)
  in
  let program =
    {
      Simulator.init =
        (fun ctx ->
          let v = ctx.Simulator.node in
          let slots = List.length part_ports.(v) in
          let rec st =
            {
              clock = 0;
              last_improved = 0;
              queued = 0;
              parts = Array.of_list (List.map fst part_ports.(v));
              part_ports = Array.of_list (List.map snd part_ports.(v));
              best = Array.make slots 0;
              known = Array.make slots false;
              queues =
                Array.init (Array.length ctx.Simulator.neighbors) (fun _ ->
                    Pqueue.create ());
              idle = (st, []);
            }
          in
          let part = Partition.part_of partition v in
          if part >= 0 then begin
            let slot = slot_of st part in
            st.best.(slot) <- values.(v);
            st.known.(slot) <- true;
            enqueue st slot values.(v) 0 ~skip_port:(-1)
          end;
          st);
      on_round =
        (fun ctx st ~inbox ->
          st.clock <- st.clock + 1;
          match inbox with
          | [] when st.queued = 0 -> st.idle
          | _ ->
              let v = ctx.Simulator.node in
              (* Causal ids of the delivered messages, parallel to [inbox];
                 empty when the run is untraced (then every cause is 0). *)
              let inbox_ids = Trace.Cause.inbox () in
              List.iteri
                (fun idx (port, (part, value, _cause)) ->
                  let slot = slot_of st part in
                  if slot >= 0 && ((not st.known.(slot)) || value < st.best.(slot)) then begin
                    st.best.(slot) <- value;
                    st.known.(slot) <- true;
                    let cause = if idx < Array.length inbox_ids then inbox_ids.(idx) else 0 in
                    enqueue st slot value cause ~skip_port:port;
                    if Partition.part_of partition v = part then st.last_improved <- st.clock
                  end)
                inbox;
              if st.clock > budget then st.idle
              else begin
                let out = ref [] in
                Array.iteri
                  (fun port q ->
                    match Pqueue.pop_min q with
                    | Some (_prio, ((part, _value, cause) as msg)) ->
                        st.queued <- st.queued - 1;
                        if Trace.Cause.enabled () then
                          Trace.Cause.emit ~port
                            ~parents:(if cause > 0 then [ cause ] else [])
                            ~part ~phase:"pa.flood" ();
                        out := (port, msg) :: !out
                    | None -> ())
                  st.queues;
                (st, !out)
              end);
      is_halted = (fun st -> st.clock > budget);
      (* (part, value): two O(log n)-bit fields = one CONGEST word. *)
      msg_words = (fun _ -> 1);
    }
  in
  (program, budget, congestion, Option.map (fun r -> r.Quality.dilation) quality)

(* --- Run and validate ------------------------------------------------------ *)

let minimum_outcome ?budget ?domains ?max_rounds ?obs ?tracer ?faults ?par_profile
    ?(reliable = true) ?config rng shortcut ~values =
  Obs.span obs "pa" @@ fun () ->
  let program, budget, congestion, dilation =
    Obs.span obs "pa.setup" (fun () ->
        setup ?budget ~with_dilation:(obs <> None) ~reliable rng shortcut ~values)
  in
  let host = Shortcut.graph shortcut in
  let max_delay = max 1 congestion in
  Obs.note obs "budget" (Obs.Int budget);
  Obs.note obs "congestion" (Obs.Int congestion);
  Option.iter (fun d -> Obs.note obs "dilation" (Obs.Int d)) dilation;
  Obs.note obs "max_delay" (Obs.Int max_delay);
  let profile, tracer = Pa_obs.profiled obs tracer ~edges:(Graph.m host) in
  let max_rounds =
    match max_rounds with
    | Some m -> m
    | None -> if reliable then budget + 512 else budget + 8
  in
  Obs.enter obs "pa.run";
  let run program =
    match
      Simulator.run_outcome ?domains ~max_rounds ?tracer ?faults ?par_profile host program
    with
    | Simulator.Finished (states, stats) -> (states, false, stats)
    | Simulator.Out_of_rounds (states, p) -> (states, true, p.Simulator.partial_stats)
  in
  let states, retransmissions, unresponsive, out_of_rounds, ostats =
    if reliable then
      let states, out, stats = run (Reliable.wrap ?config program) in
      ( Reliable.inner_states states,
        Reliable.retransmissions states,
        Reliable.dead_links states,
        out,
        stats )
    else
      let states, out, stats = run program in
      (states, 0, [], out, stats)
  in
  Pa_obs.record_epochs obs profile ~max_delay
    ~rounds:ostats.Simulator.rounds;
  Obs.exit obs;
  let crashed = match faults with None -> [] | Some inj -> Fault.crashed_nodes inj in
  let n = Graph.n host in
  let dead = Array.make n false in
  List.iter (fun v -> if v >= 0 && v < n then dead.(v) <- true) crashed;
  let minima = Aggregate.surviving_minima shortcut ~values ~crashed in
  (* Per-part validation: every surviving member must hold exactly the
     surviving minimum — anything else (missing or stale) marks the part
     diverged and its surviving members affected. Never a silent wrong
     answer; [minimum] turns the resulting [Degraded] into its [Failure]. *)
  let diverged = ref [] in
  let affected = ref [] in
  for i = Shortcut.k shortcut - 1 downto 0 do
    let members = Partition.members (Shortcut.partition shortcut) i in
    let bad = ref false in
    Array.iter
      (fun v ->
        let st = states.(v) in
        let slot = slot_of st i in
        let holds = slot >= 0 && st.known.(slot) && st.best.(slot) = minima.(i) in
        if not (dead.(v) || holds) then bad := true)
      members;
    if !bad then begin
      diverged := i :: !diverged;
      Array.iter (fun v -> if not dead.(v) then affected := v :: !affected) members
    end
  done;
  let diverged = !diverged in
  let affected = List.sort_uniq compare !affected in
  let completion_round =
    Array.fold_left (fun acc st -> max acc st.last_improved) 0 states
  in
  Option.iter
    (fun dilation ->
      Pa_obs.record_ledger obs profile ~congestion
        ~predicted_rounds:(Aggregate.bound ~congestion ~dilation:(max 1 dilation) ~n)
        ~observed_rounds:completion_round)
    dilation;
  let report = { minima; diverged; completion_round; ostats; retransmissions } in
  Outcome.classify report
    {
      Outcome.crashed;
      unresponsive;
      affected;
      out_of_rounds;
      rounds = ostats.Simulator.rounds;
    }

let minimum ?budget ?domains ?obs ?tracer ?par_profile rng shortcut ~values =
  match
    minimum_outcome ?budget ?domains ?obs ?tracer ?par_profile ~reliable:false rng shortcut
      ~values
  with
  | Outcome.Complete (r : report) ->
      {
        minima = r.minima;
        rounds = r.ostats.Simulator.rounds;
        completion_round = r.completion_round;
        messages = r.ostats.Simulator.messages;
        stats = r.ostats;
      }
  | Outcome.Degraded _ -> failwith "Sim_aggregate: part did not converge within budget"
