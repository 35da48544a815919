(* The CONGEST simulator core. One round loop serves every run: the node
   set is split into [domains] contiguous shards balanced by port count
   (one shard by default), each round runs its shards' delivery +
   protocol steps across OCaml 5 domains, and a barrier closes the round.
   Cross-shard messages travel through per-(source shard, destination
   shard) outboxes: each cell has exactly one writer (the source domain,
   during the compute phase) and exactly one reader (the destination
   domain, during the drain phase), with the phase barrier between them —
   so the hot path takes no locks at all.

   The message plane lives on flat, preallocated arrays: a CSR port
   layout shared with the graph (every per-message lookup — destination,
   host edge id, return port — is one int-array read), per-port word
   budgets cleared through a touched-slot list, double-buffered inbox
   Vecs, and (faults only) a ring of delayed deliveries keyed by arrival
   round.

   Determinism contract (doc/parallelism.mld spells it out; the
   differential suite enforces it): every observable — final states,
   statistics, trace event order, Trace.Cause id assignment, fault
   verdict order — is byte-identical to Simulator_ref at every domain
   count. Two facts make that cheap:

   - Shards are CONTIGUOUS id ranges and every domain walks its nodes in
     ascending order, so draining the outbox cells in source-shard order
     reproduces the global ascending-sender order at every inbox.
   - Traced or faulty runs consume sequential state (the id counter, the
     fault injector's random stream, the tracer callback), so they always
     run on one shard, whatever [domains] asks for: the compute phase
     runs on the main domain, which processes each send in place, in
     ascending-sender order.

   Only the untraced fault-free path — the capacity workload — shards.

   Any observable change must land here and in Simulator_ref together. *)

module Graph = Lcs_graph.Graph
module Vec = Lcs_util.Vec
module Intvec = Lcs_util.Intvec

type ctx = {
  node : int;
  neighbors : int array;
  neighbor_edges : int array;
}

type 'msg outbox = (int * 'msg) list

type ('state, 'msg) program = {
  init : ctx -> 'state;
  on_round : ctx -> 'state -> inbox:(int * 'msg) list -> 'state * 'msg outbox;
  is_halted : 'state -> bool;
  msg_words : 'msg -> int;
}

type stats = {
  rounds : int;
  messages : int;
  words : int;
  max_edge_load : int;
}

type profiled_stats = { base : stats; profile : Trace.Profile.t }

type partial = {
  partial_stats : stats;
  unhalted : int list;
  crashed_nodes : int list;
}

type 'state run_result =
  | Finished of 'state array * stats
  | Out_of_rounds of 'state array * partial

exception Bandwidth_exceeded of { node : int; port : int; round : int; words : int; limit : int }
exception Round_limit of int

(* --- the CSR port layout --------------------------------------------------- *)

(* Slot [port_offset.(v) + p] describes port [p] of node [v];
   [port_reverse] holds the local port index at the neighbor that leads
   back, so delivery is one array read. The offset/neighbor/edge planes
   are the graph's own Bigarray-backed CSR arrays shared by reference —
   nothing is re-derived or copied, and the GC never scans them; only
   [port_reverse] is computed here. *)
type csr = {
  port_offset : Intvec.t;  (* length n+1; prefix sums of degrees *)
  port_neighbor : Intvec.t;
  port_edge : Intvec.t;
  port_reverse : Intvec.t;
}

let build_csr g =
  let n = Graph.n g in
  let port_offset = Graph.csr_offsets g in
  let port_neighbor = Graph.csr_neighbors g in
  let port_edge = Graph.csr_edges g in
  let total = Intvec.get port_offset n in
  let port_reverse = Intvec.make total 0 in
  (* Each edge occupies exactly two slots; link them as the second one is
     seen. *)
  let first_slot = Intvec.make (Graph.m g) (-1) in
  for v = 0 to n - 1 do
    let off = Intvec.unsafe_get port_offset v in
    let stop = Intvec.unsafe_get port_offset (v + 1) in
    for s = off to stop - 1 do
      let e = Intvec.unsafe_get port_edge s in
      let s1 = Intvec.unsafe_get first_slot e in
      if s1 < 0 then Intvec.unsafe_set first_slot e s
      else begin
        let w = Intvec.unsafe_get port_neighbor s in
        Intvec.unsafe_set port_reverse s (s1 - Intvec.unsafe_get port_offset w);
        Intvec.unsafe_set port_reverse s1 (s - off)
      end
    done
  done;
  { port_offset; port_neighbor; port_edge; port_reverse }

let contexts csr n =
  Array.init n (fun v ->
      let off = Intvec.get csr.port_offset v in
      let len = Intvec.get csr.port_offset (v + 1) - off in
      {
        node = v;
        neighbors = Intvec.sub_array csr.port_neighbor ~pos:off ~len;
        neighbor_edges = Intvec.sub_array csr.port_edge ~pos:off ~len;
      })

(* --- shards ---------------------------------------------------------------- *)

(* The one shard-count ceiling: [recommended] and [shard_bounds] clamp to
   it, and a run's shard count is the length of its [shard_bounds]. *)
let max_domains = 32

let recommended () = max 1 (min max_domains (Domain.recommended_domain_count ()))

(* Contiguous shard boundaries balancing the port (= work) count, not the
   node count: shard [s] is [bounds.(s) .. bounds.(s+1) - 1]. *)
let shard_bounds ~domains g =
  let n = Graph.n g in
  let d = max 1 (min domains (min (max 1 n) max_domains)) in
  let offsets = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    offsets.(v + 1) <- offsets.(v) + Graph.degree g v
  done;
  let total = offsets.(n) in
  let bounds = Array.make (d + 1) n in
  bounds.(0) <- 0;
  for k = 1 to d - 1 do
    if total = 0 then bounds.(k) <- n * k / d
    else begin
      let target = total * k / d in
      let b = ref bounds.(k - 1) in
      while !b < n && offsets.(!b) < target do
        incr b
      done;
      bounds.(k) <- !b
    end
  done;
  bounds

(* --- worker crew ----------------------------------------------------------- *)

(* [domains - 1] persistent worker domains plus the calling domain, which
   participates as shard 0 and runs every serial section. One phase =
   broadcast a job, run shard 0's part inline, wait for the others. *)
type crew = {
  size : int;
  mutex : Mutex.t;
  start : Condition.t;
  finished : Condition.t;
  mutable generation : int;
  mutable job : int -> unit;
  mutable pending : int;
  mutable stop : bool;
}

let make_crew size =
  {
    size;
    mutex = Mutex.create ();
    start = Condition.create ();
    finished = Condition.create ();
    generation = 0;
    job = ignore;
    pending = 0;
    stop = false;
  }

(* Workers only ever run shards of untraced runs, so their domain-local
   Trace.Cause state keeps its disabled default. *)
let worker crew shard () =
  let seen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock crew.mutex;
    while (not crew.stop) && crew.generation = !seen do
      Condition.wait crew.start crew.mutex
    done;
    if crew.stop then begin
      Mutex.unlock crew.mutex;
      running := false
    end
    else begin
      seen := crew.generation;
      let job = crew.job in
      Mutex.unlock crew.mutex;
      job shard;
      Mutex.lock crew.mutex;
      crew.pending <- crew.pending - 1;
      if crew.pending = 0 then Condition.signal crew.finished;
      Mutex.unlock crew.mutex
    end
  done

let run_phase crew job =
  Mutex.lock crew.mutex;
  crew.job <- job;
  crew.generation <- crew.generation + 1;
  crew.pending <- crew.size - 1;
  Condition.broadcast crew.start;
  Mutex.unlock crew.mutex;
  job 0;
  Mutex.lock crew.mutex;
  while crew.pending > 0 do
    Condition.wait crew.finished crew.mutex
  done;
  Mutex.unlock crew.mutex

let shutdown crew handles =
  Mutex.lock crew.mutex;
  crew.stop <- true;
  Condition.broadcast crew.start;
  Mutex.unlock crew.mutex;
  Array.iter Domain.join handles

(* --- the round loop -------------------------------------------------------- *)

(* Materialize the (port, msg) inbox list the program API expects, in
   arrival order, from the parallel port/payload buffers. Top-level so the
   per-node, per-round call allocates only the list itself. *)
let rec build_inbox ports msgs i acc =
  if i < 0 then acc
  else build_inbox ports msgs (i - 1) ((Vec.get ports i, Vec.get msgs i) :: acc)

(* A cross-shard outbox cell: parallel destination/return-port/payload
   buffers, reused across rounds. *)
type 'msg outcell = { ob_dst : int Vec.t; ob_port : int Vec.t; ob_msg : 'msg Vec.t }

(* A delivery parked in the delayed ring. Source, edge and size ride along
   so a crash-time purge can report exactly what it discarded; [p_id] is
   the causal message id (0 when the run is untraced). *)
type 'msg pending = {
  p_dst : int;
  p_port : int;
  p_id : int;
  p_src : int;
  p_edge : int;
  p_words : int;
  p_msg : 'msg;
}

let outcome ?(domains = 1) ?(bandwidth = 1) ?(max_rounds = 100_000) ?tracer ?faults ?profile
    ?par_profile g program =
  if domains < 1 then invalid_arg "Simulator.run: domains";
  if bandwidth < 1 then invalid_arg "Simulator.run: bandwidth";
  let n = Graph.n g in
  let csr = build_csr g in
  let ctxs = contexts csr n in
  let traced = tracer <> None in
  (* A tracer or an injector makes the run's observables depend on a
     sequential resource (event order, the id counter, the random verdict
     stream), so those runs take one shard and draw on it in place. *)
  let serialized = traced || faults <> None in
  let bounds = shard_bounds ~domains:(if serialized then 1 else domains) g in
  let d = Array.length bounds - 1 in
  let owner = Array.make (max 1 n) 0 in
  for s = 0 to d - 1 do
    for v = bounds.(s) to bounds.(s + 1) - 1 do
      owner.(v) <- s
    done
  done;
  (* The run owns the ambient Cause state: ids restart at 1 and are drawn
     in trace-event order. *)
  Trace.Cause.start_run ~enabled:traced;
  let states = Array.map program.init ctxs in
  let halted = Array.map program.is_halted states in
  let live = ref (Array.fold_left (fun acc h -> if h then acc else acc + 1) 0 halted) in
  (* Inboxes as parallel (port, payload) buffers, double-buffered: [cur_*]
     is read this round, [nxt_*] collects deliveries for the next; the
     references swap at the round boundary. Capacity hints of [degree v]
     size the single lazy storage allocation for the common bandwidth-1
     case, and the buffers are cleared, never reallocated. *)
  let inbox_vecs () =
    Array.init n (fun v ->
        Vec.create
          ~capacity:(Intvec.get csr.port_offset (v + 1) - Intvec.get csr.port_offset v)
          ())
  in
  let cur_ports = ref (inbox_vecs ()) in
  let cur_msgs : 'msg Vec.t array ref = ref (inbox_vecs ()) in
  let nxt_ports = ref (inbox_vecs ()) in
  let nxt_msgs : 'msg Vec.t array ref = ref (inbox_vecs ()) in
  (* Parallel per-message causal ids, maintained only when traced. *)
  let cur_ids : int Vec.t array ref = ref (if traced then inbox_vecs () else [||]) in
  let nxt_ids : int Vec.t array ref = ref (if traced then inbox_vecs () else [||]) in
  let total_ports = Intvec.get csr.port_offset n in
  let budget = Array.make (max 1 total_ports) 0 in
  let crashed = Array.make (max 1 n) false in
  (* Delayed deliveries in a ring keyed by arrival round mod [ring_span].
     A verdict's extra latency is at most plan delay + 1 (reorder) + 1
     (duplicate tail), and arrival is [round + 1 + latency], so a span of
     max-delay + 4 strictly covers every pending slot. *)
  let ring_span =
    match faults with
    | None -> 0
    | Some inj -> Fault.max_delay (Fault.plan inj) + 4
  in
  let ring : 'msg pending Vec.t array = Array.init ring_span (fun _ -> Vec.create ()) in
  let rounds = ref 0 in
  let messages = ref 0 in
  let words = ref 0 in
  let max_edge_load = ref 0 in
  let round_max = ref 0 in
  let out_of_rounds = ref false in
  (* Per-shard failure slots: each worker stops its shard at its first
     raising node and parks the exception here; the main domain re-raises
     the one with the smallest node id — exactly the node a sequential
     sweep would have raised at, whatever the domain count. *)
  let fail : (int * exn) option array = Array.make d None in
  let fail_node = Array.make d 0 in
  let first_failure () =
    let best = ref None in
    for s = 0 to d - 1 do
      match fail.(s) with
      | None -> ()
      | Some (v, _) as f -> (
          match !best with Some (bv, _) when bv <= v -> () | _ -> best := f)
    done;
    !best
  in
  (* --- fast path (untraced, fault-free): parallel end to end ------------ *)
  let out : 'msg outcell array array =
    if serialized then [||]
    else
      Array.init d (fun _ ->
          Array.init d (fun _ ->
              { ob_dst = Vec.create (); ob_port = Vec.create (); ob_msg = Vec.create () }))
  in
  let messages_s = Array.make d 0 in
  let words_s = Array.make d 0 in
  let maxload_s = Array.make d 0 in
  let live_delta = Array.make d 0 in
  (* Per-shard dirty budget slots, so the end-of-round clear is
     O(messages), not O(ports). *)
  let touched_s =
    Array.init d (fun s ->
        let ports =
          Intvec.get csr.port_offset bounds.(s + 1) - Intvec.get csr.port_offset bounds.(s)
        in
        Array.make (max 1 ports) 0)
  in
  let ntouched = Array.make d 0 in
  (* --- per-domain profile shards (profiled, untraced, fault-free) -------- *)
  (* Profile aggregation is order-insensitive (sums, maxima, mergeable
     sketches), so unlike event tracing it can shard: each
     domain feeds its own shard through the event-free recording entry
     points and the shards merge — at flight-snapshot barriers and once at
     the end — into the caller's profile. Shard 0 is the caller's profile
     itself, so a one-domain run records straight into it and merges
     nothing. Exact-mode merges are bit-identical to an event-fed
     collector at every domain count. *)
  let profiled = profile <> None && not serialized in
  let final_profile, flight =
    match profile with Some (p, f) -> (Some p, f) | None -> (None, None)
  in
  let shard_mode =
    match final_profile with
    | Some p -> Trace.Profile.mode p
    | None -> Trace.Profile.Exact
  in
  let shards =
    if profiled then
      Array.init d (fun s ->
          if s = 0 then Option.get final_profile
          else Trace.Profile.create ~mode:shard_mode ~edges:(Graph.m g) ())
    else [||]
  in
  let roundmax_s = Array.make d 0 in
  let merged_shards () =
    let acc = Trace.Profile.create ~mode:shard_mode ~edges:(Graph.m g) () in
    Array.iter (fun shard -> Trace.Profile.merge_into ~into:acc shard) shards;
    acc
  in
  let rec send_fast s v base outbox =
    match outbox with
    | [] -> ()
    | (port, msg) :: rest ->
        let ctx = ctxs.(v) in
        if port < 0 || port >= Array.length ctx.neighbors then
          invalid_arg "Simulator: bad port";
        let size = program.msg_words msg in
        if size < 1 then invalid_arg "Simulator: msg_words must be >= 1";
        let slot = base + port in
        let prev = budget.(slot) in
        let used = prev + size in
        if used > bandwidth then
          raise
            (Bandwidth_exceeded
               { node = v; port; round = !rounds; words = used; limit = bandwidth });
        if prev = 0 then begin
          touched_s.(s).(ntouched.(s)) <- slot;
          ntouched.(s) <- ntouched.(s) + 1
        end;
        budget.(slot) <- used;
        if used > maxload_s.(s) then maxload_s.(s) <- used;
        messages_s.(s) <- messages_s.(s) + 1;
        words_s.(s) <- words_s.(s) + size;
        if profiled then begin
          Trace.Profile.record_send shards.(s) ~round:!rounds
            ~edge:(Intvec.unsafe_get csr.port_edge slot)
            ~words:size;
          if used > roundmax_s.(s) then roundmax_s.(s) <- used
        end;
        let w = Intvec.unsafe_get csr.port_neighbor slot in
        (match par_profile with
        | None -> ()
        | Some pp -> Par_profile.record_send pp ~src:s ~dst:owner.(w) ~words:size);
        let cell = out.(s).(owner.(w)) in
        Vec.push cell.ob_dst w;
        Vec.push cell.ob_port (Intvec.unsafe_get csr.port_reverse slot);
        Vec.push cell.ob_msg msg;
        send_fast s v base rest
  in
  let phase_compute_fast s =
    try
      for v = bounds.(s) to bounds.(s + 1) - 1 do
        fail_node.(s) <- v;
        let ports_v = (!cur_ports).(v) and msgs_v = (!cur_msgs).(v) in
        if not halted.(v) then begin
          let inbox = build_inbox ports_v msgs_v (Vec.length ports_v - 1) [] in
          Vec.clear ports_v;
          Vec.clear msgs_v;
          let state, outbox = program.on_round ctxs.(v) states.(v) ~inbox in
          states.(v) <- state;
          send_fast s v (Intvec.get csr.port_offset v) outbox;
          if program.is_halted state then begin
            halted.(v) <- true;
            live_delta.(s) <- live_delta.(s) - 1;
            if profiled then Trace.Profile.record_halt shards.(s) ~round:!rounds
          end
        end
        else begin
          Vec.clear ports_v;
          Vec.clear msgs_v
        end
      done;
      for i = 0 to ntouched.(s) - 1 do
        budget.(touched_s.(s).(i)) <- 0
      done;
      ntouched.(s) <- 0;
      if profiled then begin
        (* Close the round on this shard: its local bandwidth high-water
           mark; the shard merge's [set_max] recovers the global one. *)
        Trace.Profile.record_round shards.(s) ~round:!rounds
          ~max_edge_load:roundmax_s.(s);
        roundmax_s.(s) <- 0
      end
    with exn -> fail.(s) <- Some (fail_node.(s), exn)
  in
  let phase_drain t =
    (* Drain in source-shard order: shards are contiguous ascending id
       ranges, so this concatenation IS the ascending-sender order. *)
    for s = 0 to d - 1 do
      let cell = out.(s).(t) in
      for i = 0 to Vec.length cell.ob_dst - 1 do
        let w = Vec.get cell.ob_dst i in
        Vec.push (!nxt_ports).(w) (Vec.get cell.ob_port i);
        Vec.push (!nxt_msgs).(w) (Vec.get cell.ob_msg i)
      done;
      Vec.clear cell.ob_dst;
      Vec.clear cell.ob_port;
      Vec.clear cell.ob_msg
    done
  in
  (* --- serialized path (traced and/or faulty): one shard, in place ------ *)
  (* One delivered copy of a processed send: [i] is its index among the
     injector's copies (0 = the original, traced as Send; later ones are
     Duplicates), [delay] its extra latency. *)
  let deliver_copy v w back edge size used msg ~cparents ~cpart ~cphase i delay =
    incr messages;
    words := !words + size;
    (match par_profile with
    | None -> ()
    | Some pp -> Par_profile.record_send pp ~src:owner.(v) ~dst:owner.(w) ~words:size);
    let id =
      match tracer with
      | None -> 0
      | Some t ->
          if used > !round_max then round_max := used;
          let id = Trace.Cause.fresh_id () in
          let round = !rounds in
          t
            (if i = 0 then
               Trace.Send
                 {
                   round;
                   src = v;
                   dst = w;
                   edge;
                   words = size;
                   id;
                   parents = cparents;
                   part = cpart;
                   phase = cphase;
                 }
             else
               Trace.Duplicate
                 {
                   round;
                   src = v;
                   dst = w;
                   edge;
                   words = size;
                   id;
                   parents = cparents;
                   part = cpart;
                   phase = cphase;
                 });
          if delay > 0 then t (Trace.Delayed { round; src = v; dst = w; edge; delay });
          id
    in
    if delay = 0 then begin
      if traced then Vec.push (!nxt_ids).(w) id;
      Vec.push (!nxt_ports).(w) back;
      Vec.push (!nxt_msgs).(w) msg
    end
    else
      let at = !rounds + 1 + delay in
      Vec.push
        ring.(at mod ring_span)
        { p_dst = w; p_port = back; p_id = id; p_src = v; p_edge = edge; p_words = size; p_msg = msg }
  in
  (* Process one send on the main domain, with its causal declaration
     passed in. Ids, verdicts and trace events are drawn here, in
     ascending-sender order. *)
  let process_send v port msg ~cparents ~cpart ~cphase =
    let ctx = ctxs.(v) in
    if port < 0 || port >= Array.length ctx.neighbors then invalid_arg "Simulator: bad port";
    let size = program.msg_words msg in
    if size < 1 then invalid_arg "Simulator: msg_words must be >= 1";
    let slot = Intvec.get csr.port_offset v + port in
    let prev = budget.(slot) in
    let used = prev + size in
    if used > bandwidth then
      raise
        (Bandwidth_exceeded { node = v; port; round = !rounds; words = used; limit = bandwidth });
    if prev = 0 then begin
      touched_s.(0).(ntouched.(0)) <- slot;
      ntouched.(0) <- ntouched.(0) + 1
    end;
    budget.(slot) <- used;
    if used > !max_edge_load then max_edge_load := used;
    let w = Intvec.unsafe_get csr.port_neighbor slot in
    let back = Intvec.unsafe_get csr.port_reverse slot in
    let edge = Intvec.unsafe_get csr.port_edge slot in
    match faults with
    | None -> deliver_copy v w back edge size used msg ~cparents ~cpart ~cphase 0 0
    | Some inj -> (
        (* The transmission consumed its slot on the wire either way (the
           budget above); what the network then does to it is the
           injector's verdict. *)
        if crashed.(w) then begin
          Fault.note_to_crashed inj;
          match tracer with
          | None -> ()
          | Some t ->
              if used > !round_max then round_max := used;
              t (Trace.Drop { round = !rounds; src = v; dst = w; edge; words = size })
        end
        else
          match Fault.transmission inj ~round:!rounds ~edge with
          | Fault.Deliver delays ->
              List.iteri
                (deliver_copy v w back edge size used msg ~cparents ~cpart ~cphase)
                delays
          | Fault.Lose reason -> (
              match tracer with
              | None -> ()
              | Some t ->
                  if used > !round_max then round_max := used;
                  t
                    (match reason with
                    | Fault.Random_loss ->
                        Trace.Drop { round = !rounds; src = v; dst = w; edge; words = size }
                    | Fault.Link_is_down -> Trace.Link_down { round = !rounds; edge })))
  in
  (* Each send consumes its causal declaration in outbox order, even when
     the network then drops it — otherwise the per-port FIFO would drift
     at bandwidth > 1. *)
  let rec send_inline v outbox =
    match outbox with
    | [] -> ()
    | (port, msg) :: rest ->
        let cparents, cpart, cphase =
          if traced then Trace.Cause.take ~port else ([], -1, "")
        in
        process_send v port msg ~cparents ~cpart ~cphase;
        send_inline v rest
  in
  let phase_compute_slow s =
    try
      for v = bounds.(s) to bounds.(s + 1) - 1 do
        fail_node.(s) <- v;
        let ports_v = (!cur_ports).(v) and msgs_v = (!cur_msgs).(v) in
        if not (halted.(v) || crashed.(v)) then begin
          let inbox = build_inbox ports_v msgs_v (Vec.length ports_v - 1) [] in
          Vec.clear ports_v;
          Vec.clear msgs_v;
          if traced then begin
            let ids_v = (!cur_ids).(v) in
            Trace.Cause.activate (Vec.to_array ids_v);
            Vec.clear ids_v
          end;
          let state, outbox = program.on_round ctxs.(v) states.(v) ~inbox in
          states.(v) <- state;
          send_inline v outbox;
          if traced then Trace.Cause.deactivate ();
          if program.is_halted state then begin
            halted.(v) <- true;
            decr live;
            match tracer with
            | None -> ()
            | Some t -> t (Trace.Halt { round = !rounds; node = v })
          end
        end
        else begin
          Vec.clear ports_v;
          Vec.clear msgs_v;
          if traced then Vec.clear (!cur_ids).(v)
        end
      done;
      for i = 0 to ntouched.(0) - 1 do
        budget.(touched_s.(0).(i)) <- 0
      done;
      ntouched.(0) <- 0
    with exn -> fail.(s) <- Some (fail_node.(s), exn)
  in
  (* A crashed node's pending delayed deliveries are discarded with it:
     each one is traced as a Drop and counted against the injector, in
     ascending arrival-round then scheduling order, so the trace never
     shows traffic consumed by a dead node. *)
  let purge_delayed_to inj v ~round =
    for dr = 0 to ring_span - 1 do
      let slot = ring.((round + dr) mod ring_span) in
      if Vec.length slot > 0 then begin
        let keep = ref 0 in
        for i = 0 to Vec.length slot - 1 do
          let p = Vec.get slot i in
          if p.p_dst = v then begin
            Fault.note_to_crashed inj;
            match tracer with
            | None -> ()
            | Some t ->
                t (Trace.Drop { round; src = p.p_src; dst = v; edge = p.p_edge; words = p.p_words })
          end
          else begin
            Vec.set slot !keep p;
            incr keep
          end
        done;
        Vec.truncate slot !keep
      end
    done
  in
  (* With a wall-clock collector attached, each phase job times itself
     into its own shard's slot (single-writer, merged at the barrier);
     the instrumentation-off arm passes the bare jobs through and
     allocates nothing. *)
  let compute_job = if serialized then phase_compute_slow else phase_compute_fast in
  let compute_job =
    match par_profile with
    | None -> compute_job
    | Some pp ->
        fun s ->
          let t0 = Par_profile.now () in
          compute_job s;
          Par_profile.set_step pp ~shard:s (Par_profile.now () -. t0)
  in
  let drain_job =
    match par_profile with
    | None -> phase_drain
    | Some pp ->
        fun s ->
          let t0 = Par_profile.now () in
          phase_drain s;
          Par_profile.set_deliver pp ~shard:s (Par_profile.now () -. t0)
  in
  let crew = make_crew d in
  let handles = Array.init (d - 1) (fun i -> Domain.spawn (worker crew (i + 1))) in
  Fun.protect ~finally:(fun () -> shutdown crew handles) @@ fun () ->
  (match par_profile with None -> () | Some pp -> Par_profile.begin_run pp ~domains:d);
  (* A node with an empty inbox whose last round produced no messages would
     never change state again only if its program is quiescent; we cannot
     know that, so we keep stepping until is_halted. *)
  while !live > 0 && not !out_of_rounds do
    if !rounds >= max_rounds then out_of_rounds := true
    else begin
      incr rounds;
      if serialized then begin
        (match tracer with
        | None -> ()
        | Some t ->
            round_max := 0;
            t (Trace.Round_start { round = !rounds; live = !live }));
        match faults with
        | None -> ()
        | Some inj ->
            (* Crashes fire at the start of the round: the node neither
               steps nor receives from now on. *)
            List.iter
              (fun v ->
                if v >= 0 && v < n && not crashed.(v) then begin
                  crashed.(v) <- true;
                  if not halted.(v) then decr live;
                  Vec.clear (!cur_ports).(v);
                  Vec.clear (!cur_msgs).(v);
                  (match tracer with
                  | None -> ()
                  | Some t ->
                      Vec.clear (!cur_ids).(v);
                      t (Trace.Crash { round = !rounds; node = v }));
                  purge_delayed_to inj v ~round:!rounds
                end)
              (Fault.crashes_at inj ~round:!rounds);
            (* Deliveries whose extra latency expires this round join the
               inboxes after the synchronous ones. *)
            let slot = ring.(!rounds mod ring_span) in
            Vec.iter
              (fun p ->
                if not (halted.(p.p_dst) || crashed.(p.p_dst)) then begin
                  Vec.push (!cur_ports).(p.p_dst) p.p_port;
                  Vec.push (!cur_msgs).(p.p_dst) p.p_msg;
                  if traced then Vec.push (!cur_ids).(p.p_dst) p.p_id
                end)
              slot;
            Vec.clear slot
      end;
      (match par_profile with None -> () | Some pp -> Par_profile.round_start pp);
      run_phase crew compute_job;
      (match par_profile with None -> () | Some pp -> Par_profile.end_step pp);
      Option.iter (fun (_, exn) -> raise exn) (first_failure ());
      if not serialized then begin
        for s = 0 to d - 1 do
          live := !live + live_delta.(s);
          live_delta.(s) <- 0
        done;
        run_phase crew drain_job;
        match par_profile with None -> () | Some pp -> Par_profile.end_deliver pp
      end;
      let tp = !cur_ports in
      cur_ports := !nxt_ports;
      nxt_ports := tp;
      let tm = !cur_msgs in
      cur_msgs := !nxt_msgs;
      nxt_msgs := tm;
      if traced then begin
        let ti = !cur_ids in
        cur_ids := !nxt_ids;
        nxt_ids := ti
      end;
      (match tracer with
      | None -> ()
      | Some t -> t (Trace.Round_end { round = !rounds; max_edge_load = !round_max }));
      (match flight with
      | Some (every, emit) when final_profile <> None && every > 0 && !rounds mod every = 0
        ->
          (* Flight snapshot at the barrier: read each domain's
             pending-delivery depth off the inboxes the swap just made
             current. On the multi-domain fast path the heavy hitters and
             vitals come from merging the per-domain shards into a
             throwaway profile; otherwise the caller's profile (shard 0,
             or fed through the tracer tee) has already closed this
             round. *)
          let queues = Array.make d 0 in
          for s = 0 to d - 1 do
            let depth = ref 0 in
            for v = bounds.(s) to bounds.(s + 1) - 1 do
              depth := !depth + Vec.length (!cur_ports).(v)
            done;
            queues.(s) <- !depth
          done;
          let p = if profiled && d > 1 then merged_shards () else Option.get final_profile in
          emit (Trace.Flight.of_profile ~queues ~round:!rounds p)
      | _ -> ());
      match par_profile with
      | None -> ()
      | Some pp -> Par_profile.commit_round pp ~round:!rounds
    end
  done;
  (match par_profile with None -> () | Some pp -> Par_profile.end_run pp);
  if not serialized then begin
    for s = 0 to d - 1 do
      messages := !messages + messages_s.(s);
      words := !words + words_s.(s);
      if maxload_s.(s) > !max_edge_load then max_edge_load := maxload_s.(s)
    done
  end;
  if profiled then
    for s = 1 to d - 1 do
      Trace.Profile.merge_into ~into:shards.(0) shards.(s)
    done;
  let stats =
    { rounds = !rounds; messages = !messages; words = !words; max_edge_load = !max_edge_load }
  in
  if !out_of_rounds then begin
    let unhalted = ref [] in
    for v = n - 1 downto 0 do
      if not (halted.(v) || crashed.(v)) then unhalted := v :: !unhalted
    done;
    let crashed_nodes =
      match faults with None -> [] | Some inj -> Fault.crashed_nodes inj
    in
    Out_of_rounds (states, { partial_stats = stats; unhalted = !unhalted; crashed_nodes })
  end
  else Finished (states, stats)

(* --- entry points ---------------------------------------------------------- *)

let run_outcome ?domains ?bandwidth ?max_rounds ?tracer ?faults ?par_profile g program =
  outcome ?domains ?bandwidth ?max_rounds ?tracer ?faults ?par_profile g program

let finished = function
  | Finished (states, stats) -> (states, stats)
  | Out_of_rounds (_, partial) -> raise (Round_limit partial.partial_stats.rounds)

let run ?domains ?bandwidth ?max_rounds ?tracer ?faults ?par_profile g program =
  finished (outcome ?domains ?bandwidth ?max_rounds ?tracer ?faults ?par_profile g program)

let run_profiled ?domains ?bandwidth ?max_rounds ?mode ?flight ?tracer ?faults ?par_profile g
    program =
  let profile = Trace.Profile.create ?mode ~edges:(Graph.m g) () in
  (* A profile-only run keeps the parallel fast path with per-domain
     profile shards. An external tracer or a fault plan puts the run on
     one shard anyway, so the profile collects through the event stream,
     teed ahead of the caller's tracer. *)
  let tracer =
    match (tracer, faults) with
    | None, None -> None
    | None, Some _ -> Some (Trace.Profile.tracer profile)
    | Some t, _ -> Some (Trace.tee [ Trace.Profile.tracer profile; t ])
  in
  let states, base =
    finished
      (outcome ?domains ?bandwidth ?max_rounds ?tracer ?faults ~profile:(profile, flight)
         ?par_profile g program)
  in
  (states, { base; profile })
