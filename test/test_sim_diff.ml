(* Differential equivalence of the simulator core (Simulator) against the
   retained reference implementation (Simulator_ref).

   The two must be observationally indistinguishable: identical final
   states, statistics, trace event sequences and fault counters on the
   same graph / program / fault plan — fault-free, faulty, traced,
   untraced, finished and Out_of_rounds alike, and at every domain count
   from one shard up (the determinism contract of doc/parallelism.mld).
   The programs, graphs and plans here are qcheck-generated; the program
   family below is a deterministic "gossip" whose sends, sizes and
   halting rounds are all hash-derived from the node's accumulated view,
   so any divergence in delivery order or content snowballs into
   different states.

   Setting LCS_DOMAINS=<d> adds one more domain count to the sweep — CI
   uses it to run the whole tier under a second shard geometry. *)

open Core

let check = Alcotest.check
let case = Alcotest.test_case

let random_connected_graph seed ~n ~extra =
  let rng = Rng.create seed in
  let b = Builder.create ~n in
  for v = 1 to n - 1 do
    Builder.add_edge b (Rng.int rng v) v
  done;
  let added = ref 0 in
  let attempts = ref 0 in
  while !added < extra && !attempts < 20 * extra do
    incr attempts;
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v && not (Builder.mem_edge b u v) then begin
      Builder.add_edge b u v;
      incr added
    end
  done;
  Builder.graph b

(* --- the gossip program family ----------------------------------------- *)

let mix a b =
  let h = (a * 0x9E3779B1) lxor (b * 0x85EBCA77) lxor (((a lsr 7) + b) * 0x27D4EB2F) in
  h land 0x3FFFFFFF

type gstate = { acc : int; round : int; stop : int }

(* Every node gossips hash-derived payloads on a hash-chosen set of
   distinct ports (at most one message per port per round, each of at most
   [bw] words, so the bandwidth budget is respected by construction) and
   halts at a hash-chosen round in [1..10]. *)
let gossip ~pseed ~bw =
  {
    Simulator.init =
      (fun ctx ->
        {
          acc = mix pseed ctx.Simulator.node;
          round = 0;
          stop = 1 + (mix pseed (ctx.Simulator.node + 13) mod 10);
        });
    on_round =
      (fun ctx st ~inbox ->
        let acc =
          List.fold_left (fun a (p, m) -> mix a (mix (p + 1) m)) st.acc inbox
        in
        let round = st.round + 1 in
        let deg = Array.length ctx.Simulator.neighbors in
        let outbox =
          if deg = 0 then []
          else
            let fanout = mix acc round mod (min deg 3 + 1) in
            let start = mix acc (round + 31) mod deg in
            List.init fanout (fun i ->
                ((start + i) mod deg, mix acc (i + 977)))
        in
        ({ acc; round; stop = st.stop }, outbox));
    is_halted = (fun st -> st.round >= st.stop);
    msg_words = (fun m -> 1 + (m mod bw));
  }

(* --- generated fault plans --------------------------------------------- *)

let gen_plan seed ~n ~m =
  let rng = Rng.create (seed + 0x5EED) in
  let gen_edge_faults () =
    let maybe p f = if Rng.bernoulli rng p then f () else 0. in
    {
      Fault.drop = maybe 0.5 (fun () -> Rng.uniform01 rng *. 0.3);
      duplicate = maybe 0.4 (fun () -> Rng.uniform01 rng *. 0.3);
      reorder = maybe 0.4 (fun () -> Rng.uniform01 rng *. 0.3);
      delay = (if Rng.bernoulli rng 0.4 then Rng.int rng 3 else 0);
      down =
        (if Rng.bernoulli rng 0.3 then
           let lo = 1 + Rng.int rng 5 in
           [ (lo, lo + Rng.int rng 4) ]
         else []);
    }
  in
  let overrides =
    if m = 0 then []
    else
      List.init (Rng.int rng 3) (fun _ -> (Rng.int rng m, gen_edge_faults ()))
  in
  let crashes =
    List.init (Rng.int rng 3) (fun _ ->
        { Fault.node = Rng.int rng n; round = 1 + Rng.int rng 5 })
  in
  { Fault.seed; default = gen_edge_faults (); edges = overrides; crashes }

(* --- runners ------------------------------------------------------------ *)

(* The reference oracle, or the simulator on [d] domains. *)
type core = Ref | Sim of int

let run_core core ?bandwidth ?max_rounds ?tracer ?faults g program =
  match core with
  | Ref -> Simulator_ref.run_outcome ?bandwidth ?max_rounds ?tracer ?faults g program
  | Sim d ->
      Simulator.run_outcome ~domains:d ?bandwidth ?max_rounds ?tracer ?faults g program

(* Run one core with a recorder attached and a fresh injector; return
   everything observable. *)
let observe core ?bandwidth ?max_rounds ?plan g program =
  let recorder = Trace.Recorder.create () in
  let faults = Option.map (fun p -> Fault.compile p) plan in
  let tracer = Trace.Recorder.tracer recorder in
  let result = run_core core ?bandwidth ?max_rounds ~tracer ?faults g program in
  (result, Trace.Recorder.events recorder, Option.map Fault.counts faults)

(* The same, with no tracer attached — the simulator takes a different
   (fully parallel) path for untraced fault-free runs, so the untraced
   observables need their own comparison. *)
let observe_untraced core ?bandwidth ?max_rounds ?plan g program =
  let faults = Option.map (fun p -> Fault.compile p) plan in
  let result = run_core core ?bandwidth ?max_rounds ?faults g program in
  (result, Option.map Fault.counts faults)

let same_result ra rb =
  match (ra, rb) with
  | Simulator.Finished (sa, ta), Simulator.Finished (sb, tb) -> sa = sb && ta = tb
  | Simulator.Out_of_rounds (sa, pa), Simulator.Out_of_rounds (sb, pb) ->
      sa = sb && pa = pb
  | _ -> false

let same_observation (ra, ea, ca) (rb, eb, cb) =
  same_result ra rb && ea = eb && ca = cb

(* Domain counts the simulator is swept over — one shard, the geometry of
   every default run, and three sharded ones; LCS_DOMAINS adds one. *)
let domain_counts =
  let base = [ 1; 2; 3; 4 ] in
  match Sys.getenv_opt "LCS_DOMAINS" with
  | None -> base
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some d when d >= 1 && not (List.mem d base) -> base @ [ d ]
      | _ -> base)

(* The simulator at every domain count in [domains] must reproduce the
   oracle byte for byte: traced observables (events, ids, fault counters)
   AND the untraced run, which exercises the lock-free parallel fast
   path. *)
let sharded_agrees ?(domains = domain_counts) ?bandwidth ?max_rounds ?plan g program =
  let oracle = observe Ref ?bandwidth ?max_rounds ?plan g program in
  let oracle_untraced = observe_untraced Ref ?bandwidth ?max_rounds ?plan g program in
  List.for_all
    (fun d ->
      same_observation (observe (Sim d) ?bandwidth ?max_rounds ?plan g program) oracle
      &&
      let r, c = observe_untraced (Sim d) ?bandwidth ?max_rounds ?plan g program in
      let ro, co = oracle_untraced in
      same_result r ro && c = co)
    domains

(* The one-shard case on its own, at the property counts of the
   single-geometry properties below. *)
let cores_agree = sharded_agrees ~domains:[ 1 ]

(* --- properties --------------------------------------------------------- *)

let diff_fault_free =
  QCheck.Test.make ~name:"CSR = reference (fault-free)" ~count:120
    QCheck.(triple (int_bound 100_000) (int_range 2 20) (int_bound 2))
    (fun (seed, n, bw_sel) ->
      let g = random_connected_graph seed ~n ~extra:(n / 2) in
      let bw = 1 + bw_sel in
      let program = gossip ~pseed:(mix seed 5) ~bw in
      cores_agree ~bandwidth:bw g program
      &&
      (* tracing must not perturb what it observes: an untraced run
         reports the same stats as the traced one *)
      match
        ( Simulator.run_outcome ~bandwidth:bw g program,
          observe (Sim 1) ~bandwidth:bw g program )
      with
      | Simulator.Finished (_, s1), (Simulator.Finished (_, s2), _, _) -> s1 = s2
      | _ -> false)

let diff_faulty =
  QCheck.Test.make ~name:"CSR = reference (fault plans)" ~count:120
    QCheck.(triple (int_bound 100_000) (int_range 2 18) (int_bound 1))
    (fun (seed, n, bw_sel) ->
      let g = random_connected_graph seed ~n ~extra:(n / 2) in
      let plan = gen_plan seed ~n ~m:(Graph.m g) in
      let bw = 1 + bw_sel in
      cores_agree ~bandwidth:bw ~plan g (gossip ~pseed:(mix seed 11) ~bw))

let diff_out_of_rounds =
  QCheck.Test.make ~name:"CSR = reference (Out_of_rounds)" ~count:40
    QCheck.(triple (int_bound 100_000) (int_range 2 14) QCheck.bool)
    (fun (seed, n, with_faults) ->
      let g = random_connected_graph seed ~n ~extra:(n / 3) in
      let plan = if with_faults then Some (gen_plan seed ~n ~m:(Graph.m g)) else None in
      (* A 2-round ceiling against stop rounds up to 10 forces partial
         outcomes; both cores must return identical Out_of_rounds
         payloads. *)
      cores_agree ~max_rounds:2 ?plan g (gossip ~pseed:(mix seed 17) ~bw:1))

(* --- sharded-core properties -------------------------------------------- *)

let diff_sharded_fault_free =
  QCheck.Test.make ~name:"sharded = reference (fault-free)" ~count:50
    QCheck.(triple (int_bound 100_000) (int_range 2 20) (int_bound 2))
    (fun (seed, n, bw_sel) ->
      let g = random_connected_graph seed ~n ~extra:(n / 2) in
      let bw = 1 + bw_sel in
      sharded_agrees ~bandwidth:bw g (gossip ~pseed:(mix seed 23) ~bw))

let diff_sharded_faulty =
  QCheck.Test.make ~name:"sharded = reference (fault plans)" ~count:50
    QCheck.(triple (int_bound 100_000) (int_range 2 18) (int_bound 1))
    (fun (seed, n, bw_sel) ->
      let g = random_connected_graph seed ~n ~extra:(n / 2) in
      let plan = gen_plan seed ~n ~m:(Graph.m g) in
      let bw = 1 + bw_sel in
      sharded_agrees ~bandwidth:bw ~plan g (gossip ~pseed:(mix seed 29) ~bw))

let diff_sharded_out_of_rounds =
  QCheck.Test.make ~name:"sharded = reference (Out_of_rounds)" ~count:20
    QCheck.(triple (int_bound 100_000) (int_range 2 14) QCheck.bool)
    (fun (seed, n, with_faults) ->
      let g = random_connected_graph seed ~n ~extra:(n / 3) in
      let plan = if with_faults then Some (gen_plan seed ~n ~m:(Graph.m g)) else None in
      sharded_agrees ~max_rounds:2 ?plan g (gossip ~pseed:(mix seed 37) ~bw:1))

(* Bipartite construction whose every edge joins the low and the high half
   of the id range: under the simulator's contiguous shard assignment
   essentially all traffic crosses a shard boundary, stressing the
   cross-shard outbox plane rather than the shard-local common case. *)
let cross_shard_graph seed ~n =
  let rng = Rng.create seed in
  let half = n / 2 in
  let hi = n - half in
  let b = Builder.create ~n in
  (* An alternating low/high path 0, half, 1, half+1, ... keeps the graph
     connected using cut edges only. *)
  for i = 0 to half - 1 do
    Builder.add_edge b i (half + min i (hi - 1));
    if i + 1 < half then Builder.add_edge b (i + 1) (half + min i (hi - 1))
  done;
  let added = ref 0 in
  let attempts = ref 0 in
  while !added < n && !attempts < 20 * n do
    incr attempts;
    let u = Rng.int rng half and w = half + Rng.int rng hi in
    if not (Builder.mem_edge b u w) then begin
      Builder.add_edge b u w;
      incr added
    end
  done;
  Builder.graph b

let diff_sharded_cross_shard =
  QCheck.Test.make ~name:"sharded = reference (all-cross-shard traffic)" ~count:40
    QCheck.(triple (int_bound 100_000) (int_range 4 20) QCheck.bool)
    (fun (seed, n, with_faults) ->
      let g = cross_shard_graph seed ~n in
      let plan = if with_faults then Some (gen_plan seed ~n ~m:(Graph.m g)) else None in
      sharded_agrees ~bandwidth:2 ?plan g (gossip ~pseed:(mix seed 41) ~bw:2))

(* --- deterministic cases ------------------------------------------------ *)

(* Both cores reject an over-budget send with the same exception payload.
   On the second host node 2 also raises, in the same round as node 0's
   overrun: the smaller node's offense must surface, as in the reference
   core's sequential sweep — on the sharded fast path, where node 2 may
   step on another domain before node 0's overrun surfaces, and on the
   traced path, which runs on one shard at every requested count. *)
let bandwidth_parity () =
  let program =
    {
      Simulator.init = (fun _ -> false);
      on_round =
        (fun ctx st ~inbox ->
          ignore inbox;
          match ctx.Simulator.node with
          | 0 when not st -> (true, [ (0, 1); (0, 2) ])
          | 2 -> failwith "node 2 raised"
          | _ -> (true, []));
      is_halted = (fun st -> st);
      msg_words = (fun _ -> 1);
    }
  in
  let catch g run =
    try
      ignore (run g program);
      None
    with Simulator.Bandwidth_exceeded { node; port; round; words; limit } ->
      Some (node, port, round, words, limit)
  in
  List.iter
    (fun g ->
      let expected = catch g (fun g p -> Simulator_ref.run g p) in
      check Alcotest.bool "reference raises" true (expected <> None);
      (* The simulator raises the identical payload at every requested
         domain count — on the parallel fast path (untraced) and on the
         one-shard traced path. *)
      List.iter
        (fun d ->
          check Alcotest.bool
            (Printf.sprintf "fast path raises, n=%d domains=%d" (Graph.n g) d)
            true
            (catch g (fun g p -> Simulator.run ~domains:d g p) = expected);
          check Alcotest.bool
            (Printf.sprintf "traced path raises, n=%d domains=%d" (Graph.n g) d)
            true
            (catch g (fun g p -> Simulator.run ~domains:d ~tracer:(fun _ -> ()) g p)
            = expected))
        domain_counts)
    [ Generators.path 2; Generators.path 3 ]

(* A crash purges the delayed deliveries already in flight toward the dead
   node: they surface as Drop events at the crash round and count as
   to_crashed, identically on both cores. *)
let crash_purges_delayed () =
  let g = Generators.path 3 in
  (* Node 1 pushes one word toward node 2 every round; all traffic takes 2
     extra rounds of latency. Node 2 dies at round 2, while the round-1
     send (arrival round 4) is still queued. *)
  let program =
    {
      Simulator.init = (fun ctx -> (ctx.Simulator.node, 0));
      on_round =
        (fun ctx (id, r) ~inbox ->
          ignore inbox;
          let r = r + 1 in
          let outbox =
            if id = 1 && r <= 4 then
              (* port of node 1 leading to node 2 *)
              let port = ref (-1) in
              Array.iteri
                (fun p w -> if w = 2 then port := p)
                ctx.Simulator.neighbors;
              [ (!port, r) ]
            else []
          in
          ((id, r), outbox));
      is_halted = (fun (_, r) -> r >= 6);
      msg_words = (fun _ -> 1);
    }
  in
  let plan =
    {
      Fault.seed = 3;
      default = { Fault.reliable_edge with delay = 2 };
      edges = [];
      crashes = [ { Fault.node = 2; round = 2 } ];
    }
  in
  let ((_, events, counts) as obs_a) = observe (Sim 1) ~plan g program in
  let obs_b = observe Ref ~plan g program in
  check Alcotest.bool "cores agree" true (same_observation obs_a obs_b);
  let purged =
    List.exists
      (function
        | Trace.Drop { round = 2; src = 1; dst = 2; _ } -> true
        | _ -> false)
      events
  in
  check Alcotest.bool "purge traced as Drop at crash round" true purged;
  match counts with
  | None -> Alcotest.fail "expected fault counters"
  | Some c ->
      (* Round-1 send purged at the crash + every later send to the dead
         node. *)
      check Alcotest.bool "to_crashed counts the purge" true (c.Fault.to_crashed >= 4)

(* The acceptance property of sharded runs, verbatim: the per-edge
   trace profile of a run is byte-identical (as serialized JSON) across
   --domains 1/2/4 — fault-free and under a fault plan. *)
let profile_bytes_across_domains () =
  let g = random_connected_graph 4242 ~n:24 ~extra:12 in
  let check_case name ?plan () =
    let profile_json d =
      let profile = Trace.Profile.create ~edges:(Graph.m g) () in
      let tracer = Trace.Profile.tracer profile in
      let faults = Option.map (fun p -> Fault.compile p) plan in
      ignore
        (Simulator.run_outcome ~domains:d ~bandwidth:2 ~tracer ?faults g
           (gossip ~pseed:4711 ~bw:2));
      Json.to_string (Trace.Profile.to_json profile)
    in
    let base = profile_json 1 in
    List.iter
      (fun d ->
        check Alcotest.string (Printf.sprintf "%s profile, domains=%d" name d) base
          (profile_json d))
      [ 2; 4 ]
  in
  check_case "fault-free" ();
  check_case "faulty" ~plan:(gen_plan 4242 ~n:24 ~m:(Graph.m g)) ()

(* The profiled entry point against an event-fed oracle: a plain run
   whose tracer tees the event-stream profile collector ahead of the
   flight observer. [run_profiled] instead fills per-domain profile shards
   through the event-free recording entry points and merges them, so at
   every domain count — one included — its states, Exact-mode profile
   bytes and flight vitals must equal the oracle's; its snapshots carry
   one queue column per domain. In Sketch mode the one-domain profile is
   byte-equal as well (evictions included), and merged runs keep the
   total. *)
let run_profiled_parallel_bytes () =
  let g = random_connected_graph 777 ~n:32 ~extra:20 in
  let program = gossip ~pseed:97 ~bw:2 in
  let vitals snaps =
    List.rev_map
      (fun s -> Trace.Flight.(s.round, s.words, s.messages, s.halted, s.top))
      snaps
  in
  let oracle ?mode () =
    let p = Trace.Profile.create ?mode ~edges:(Graph.m g) () in
    let snaps = ref [] in
    let tracer =
      Trace.tee
        [
          Trace.Profile.tracer p;
          Trace.Flight.observer ~every:2 p (fun s -> snaps := s :: !snaps);
        ]
    in
    let states, _ = Simulator.run ~bandwidth:2 ~tracer g program in
    (states, p, vitals !snaps)
  in
  let run ?mode d =
    let snaps = ref [] in
    let states, stats =
      Simulator.run_profiled ~domains:d ~bandwidth:2 ?mode
        ~flight:(2, fun s -> snaps := s :: !snaps)
        g program
    in
    let widths = List.map (fun s -> Array.length s.Trace.Flight.queues) !snaps in
    (states, stats.Simulator.profile, vitals !snaps, widths)
  in
  let bytes p = Json.to_string (Trace.Profile.to_json p) in
  let base_states, base_profile, base_vitals = oracle () in
  check Alcotest.bool "flight recorder actually fired" true (base_vitals <> []);
  List.iter
    (fun d ->
      let states, profile, vitals, widths = run d in
      check Alcotest.bool (Printf.sprintf "%d queue columns" d) true
        (widths <> [] && List.for_all (( = ) d) widths);
      check Alcotest.bool (Printf.sprintf "states equal, domains=%d" d) true
        (states = base_states);
      check Alcotest.string (Printf.sprintf "profile bytes, domains=%d" d)
        (bytes base_profile) (bytes profile);
      check Alcotest.bool (Printf.sprintf "flight vitals equal, domains=%d" d)
        true
        (vitals = base_vitals))
    [ 1; 2; 4 ];
  let mode = Trace.Profile.Sketch 4 in
  let _, sketch_oracle, _ = oracle ~mode () in
  let evictions p =
    let j = Trace.Profile.to_json p in
    Option.bind (Json.member "sketch" j) (Json.member "evictions")
    |> Fun.flip Option.bind Json.to_int
    |> Option.get
  in
  check Alcotest.bool "sketch oracle evicts" true (evictions sketch_oracle > 0);
  let _, one, _, _ = run ~mode 1 in
  check Alcotest.string "sketch profile bytes, domains=1" (bytes sketch_oracle) (bytes one);
  List.iter
    (fun d ->
      let _, merged, _, _ = run ~mode d in
      check Alcotest.int (Printf.sprintf "sketch total words, domains=%d" d)
        (Trace.Profile.total_words sketch_oracle)
        (Trace.Profile.total_words merged))
    [ 2; 4 ]

(* Crash-at-round of a node whose pending delayed deliveries come from
   across a shard boundary: for each swept domain count, the sender sits
   just below the first boundary an untraced run at that count would cut,
   and the victim just above it. A faulty run executes on one shard
   whatever count it requests, so this pins that the requested count
   never changes the purge: observables must match the serial oracle
   exactly, and the purge must surface as Drop events at the crash
   round. *)
let cross_shard_crash_purge () =
  let n = 8 in
  let g = Generators.path n in
  let program_from sender =
    {
      Simulator.init = (fun ctx -> (ctx.Simulator.node, 0));
      on_round =
        (fun ctx (id, r) ~inbox ->
          ignore inbox;
          let r = r + 1 in
          let outbox =
            if id = sender && r <= 4 then
              let port = ref (-1) in
              Array.iteri
                (fun p w -> if w = sender + 1 then port := p)
                ctx.Simulator.neighbors;
              [ (!port, r) ]
            else []
          in
          ((id, r), outbox));
      is_halted = (fun (_, r) -> r >= 6);
      msg_words = (fun _ -> 1);
    }
  in
  List.iter
    (fun d ->
      let bounds = Simulator.shard_bounds ~domains:d g in
      let boundary = bounds.(1) in
      check Alcotest.bool
        (Printf.sprintf "shard boundary interior, domains=%d" d)
        true
        (boundary > 0 && boundary < n);
      let sender = boundary - 1 in
      let program = program_from sender in
      let plan =
        {
          Fault.seed = 3;
          default = { Fault.reliable_edge with delay = 2 };
          edges = [];
          crashes = [ { Fault.node = sender + 1; round = 2 } ];
        }
      in
      let ((_, events, _) as obs_par) = observe (Sim d) ~plan g program in
      let obs_ref = observe Ref ~plan g program in
      check Alcotest.bool
        (Printf.sprintf "sharded = reference, domains=%d" d)
        true
        (same_observation obs_par obs_ref);
      let purged =
        List.exists
          (function
            | Trace.Drop { round = 2; src; dst; _ } ->
                src = sender && dst = sender + 1
            | _ -> false)
          events
      in
      check Alcotest.bool
        (Printf.sprintf "foreign-shard purge traced as Drop, domains=%d" d)
        true purged)
    (List.filter (fun d -> d > 1) domain_counts)

(* --- parallel-execution profiler --------------------------------------- *)

(* Attaching a Par_profile collector must be invisible to every simulator
   observable — the instrumented-vs-uninstrumented sweep of the
   observability acceptance criteria. At each swept domain count
   (including 1, whose single-shard timeline is the speedup baseline),
   fault-free and under a fault plan, traced and untraced: identical
   results, identical trace event sequences, byte-identical Exact-mode
   congestion profiles, identical fault counters. The collector sees the
   requested shard count only on untraced fault-free runs; a traced or
   faulty run always executes on one shard. *)
let par_profile_transparent () =
  let g = random_connected_graph 1312 ~n:28 ~extra:16 in
  let program = gossip ~pseed:2029 ~bw:2 in
  let plan = gen_plan 1312 ~n:28 ~m:(Graph.m g) in
  let traced ?plan ~pp d =
    let recorder = Trace.Recorder.create () in
    let profile = Trace.Profile.create ~edges:(Graph.m g) () in
    let tracer =
      Trace.tee [ Trace.Recorder.tracer recorder; Trace.Profile.tracer profile ]
    in
    let faults = Option.map (fun p -> Fault.compile p) plan in
    let par_profile = if pp then Some (Par_profile.create ()) else None in
    let result =
      Simulator.run_outcome ~domains:d ~bandwidth:2 ~tracer ?faults ?par_profile g
        program
    in
    ( result,
      Trace.Recorder.events recorder,
      Json.to_string (Trace.Profile.to_json profile),
      Option.map Fault.counts faults,
      par_profile )
  in
  let untraced ?plan ~pp d =
    let faults = Option.map (fun p -> Fault.compile p) plan in
    let par_profile = if pp then Some (Par_profile.create ()) else None in
    (Simulator.run_outcome ~domains:d ~bandwidth:2 ?faults ?par_profile g program,
     par_profile)
  in
  let shards label expected = function
    | None -> Alcotest.fail "collector missing"
    | Some pp ->
        check Alcotest.int
          (Printf.sprintf "collector saw %d shards (%s)" expected label)
          expected (Par_profile.domains pp);
        check Alcotest.bool
          (Printf.sprintf "collector recorded rounds (%s)" label)
          true
          (Par_profile.rounds pp > 0)
  in
  List.iter
    (fun d ->
      List.iter
        (fun (label, plan) ->
          let r0, e0, p0, c0, _ = traced ?plan ~pp:false d in
          let r1, e1, p1, c1, pp = traced ?plan ~pp:true d in
          check Alcotest.bool
            (Printf.sprintf "traced %s observables, domains=%d" label d)
            true
            (same_result r0 r1 && e0 = e1 && c0 = c1);
          check Alcotest.string
            (Printf.sprintf "traced %s profile bytes, domains=%d" label d)
            p0 p1;
          shards (Printf.sprintf "traced %s, domains=%d" label d) 1 pp)
        [ ("fault-free", None); ("faulty", Some plan) ];
      let r0, _ = untraced ~pp:false d in
      let r1, pp = untraced ~pp:true d in
      check Alcotest.bool
        (Printf.sprintf "untraced fast-path result, domains=%d" d)
        true (same_result r0 r1);
      shards (Printf.sprintf "untraced fault-free, domains=%d" d) d pp;
      let r0, _ = untraced ~plan ~pp:false d in
      let r1, pp = untraced ~plan ~pp:true d in
      check Alcotest.bool
        (Printf.sprintf "untraced faulty result, domains=%d" d)
        true (same_result r0 r1);
      shards (Printf.sprintf "untraced faulty, domains=%d" d) 1 pp)
    domain_counts

(* The traffic matrix is an exact decomposition of the run's delivered
   traffic: cell (s, t) counts messages whose source lives in shard s and
   destination in shard t, recorded at the simulator's own counting
   points — so the matrix total equals Simulator.stats messages/words,
   and each row sum equals the per-domain totals row. Holds fault-free
   and under fault plans (duplicates count per delivery, drops and
   to-crashed sends not at all), at every domain count. *)
let traffic_matrix_reconciles =
  QCheck.Test.make ~name:"traffic matrix sums = simulator stats" ~count:60
    QCheck.(
      quad (int_bound 100_000) (int_range 2 20) (int_bound 2) QCheck.bool)
    (fun (seed, n, bw_sel, with_faults) ->
      let g = random_connected_graph seed ~n ~extra:(n / 2) in
      let bw = 1 + bw_sel in
      let program = gossip ~pseed:(mix seed 53) ~bw in
      let plan =
        if with_faults then Some (gen_plan seed ~n ~m:(Graph.m g)) else None
      in
      List.for_all
        (fun d ->
          let pp = Par_profile.create () in
          let faults = Option.map (fun p -> Fault.compile p) plan in
          let stats =
            match
              Simulator.run_outcome ~domains:d ~bandwidth:bw ?faults
                ~par_profile:pp g program
            with
            | Simulator.Finished (_, stats) -> stats
            | Simulator.Out_of_rounds _ -> assert false
          in
          let tm = Par_profile.traffic_messages pp in
          let tw = Par_profile.traffic_words pp in
          let sum m =
            Array.fold_left
              (fun acc row -> Array.fold_left ( + ) acc row)
              0 m
          in
          let totals = Par_profile.totals pp in
          sum tm = stats.Simulator.messages
          && sum tw = stats.Simulator.words
          && Array.for_all2
               (fun (t : Par_profile.totals) row ->
                 t.Par_profile.messages = Array.fold_left ( + ) 0 row)
               totals tm
          && Array.for_all2
               (fun (t : Par_profile.totals) row ->
                 t.Par_profile.words = Array.fold_left ( + ) 0 row)
               totals tw)
        domain_counts)

(* Satellite of the same PR: the shard-count clamp is one documented
   constant. [recommended] and [shard_bounds] agree on [max_domains] —
   the historical [1,8] vs [1,32] split is gone. *)
let clamp_unified () =
  check Alcotest.int "max_domains is the documented ceiling" 32
    Simulator.max_domains;
  let r = Simulator.recommended () in
  check Alcotest.bool "recommended within [1, max_domains]" true
    (r >= 1 && r <= Simulator.max_domains);
  let g = Generators.grid ~rows:8 ~cols:8 in
  (* Requests beyond the ceiling clamp to it (n = 64 > 32 here, so the
     node count is not the binding constraint). *)
  let bounds = Simulator.shard_bounds ~domains:1000 g in
  check Alcotest.int "shard_bounds clamps to max_domains"
    Simulator.max_domains
    (Array.length bounds - 1);
  let tiny = Generators.path 3 in
  let tb = Simulator.shard_bounds ~domains:1000 tiny in
  check Alcotest.int "node count still binds below the ceiling" 3
    (Array.length tb - 1)

(* The cross-shard generator earns its name: at domains=2 the contiguous
   port-balanced split leaves every generated edge crossing the shard
   boundary. *)
let cross_shard_graph_is_cross () =
  let g = cross_shard_graph 7 ~n:16 in
  let bounds = Simulator.shard_bounds ~domains:2 g in
  let owner v = if v < bounds.(1) then 0 else 1 in
  let crossing = ref 0 and total = ref 0 in
  Graph.iter_edges g (fun _ u v ->
      incr total;
      if owner u <> owner v then incr crossing);
  check Alcotest.bool "boundary interior" true (bounds.(1) > 0 && bounds.(1) < 16);
  check Alcotest.bool "most edges cross the shard boundary" true
    (!total > 0 && !crossing * 2 > !total)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      diff_fault_free;
      diff_faulty;
      diff_out_of_rounds;
      diff_sharded_fault_free;
      diff_sharded_faulty;
      diff_sharded_out_of_rounds;
      diff_sharded_cross_shard;
      traffic_matrix_reconciles;
    ]

let suite =
  [
    case "bandwidth exception parity" `Quick bandwidth_parity;
    case "crash purges delayed deliveries" `Quick crash_purges_delayed;
    case "profile bytes identical across domains" `Quick profile_bytes_across_domains;
    case "run_profiled shards merge bit-exactly" `Quick run_profiled_parallel_bytes;
    case "cross-shard crash purges foreign deliveries" `Quick cross_shard_crash_purge;
    case "par_profile attach is observable-transparent" `Quick par_profile_transparent;
    case "domain-count clamp is one constant" `Quick clamp_unified;
    case "cross-shard generator sanity" `Quick cross_shard_graph_is_cross;
  ]
  @ props
