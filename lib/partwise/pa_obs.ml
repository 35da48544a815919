(* Shared observability plumbing for the part-wise aggregation engines.
   Both Aggregate (packet router) and Sim_aggregate (enforced simulator)
   emit the same span shape — "pa" wrapping "pa.run", with post-hoc
   "pa.epoch" children cut from the traced load curve at the random-delay
   schedule's epoch boundaries — so downstream consumers (reports, the
   MST span tree) need only one schema. No mli: internal to lcs_partwise. *)

module Trace = Lcs_congest.Trace
module Obs = Lcs_obs.Obs

(* When a collector is installed, tee an internal profile into the
   caller's tracer so epochs and the congestion ledger can be derived
   without asking the caller to profile. *)
let profiled obs tracer ~edges =
  match obs with
  | None -> (None, tracer)
  | Some _ ->
      let p = Trace.Profile.create ~edges () in
      let pt = Trace.Profile.tracer p in
      let tracer =
        match tracer with None -> pt | Some t -> Trace.tee [ t; pt ]
      in
      (Some p, Some tracer)

(* Emit one "pa.epoch" span per schedule epoch, carrying the window's
   simulated rounds and traced words, through the last epoch that holds a
   round with traffic; the idle rounds after it go to "pa.run" in one
   [add_rounds], so the rolled-up rounds still equal [rounds]. Called
   while "pa.run" is still open so the epochs nest under it (their
   wall-clock extent is an artifact — the information is in rounds/words,
   like the paper's analysis). *)
let record_epochs obs profile ~max_delay ~rounds =
  match profile with
  | None -> ()
  | Some p ->
      let curve = Trace.Profile.load_curve p in
      let last_busy = ref 0 in
      Array.iteri (fun i w -> if w > 0 && i < rounds then last_busy := i + 1) curve;
      let covered = ref 0 in
      List.iteri
        (fun idx (first, last) ->
          if first <= !last_busy then begin
            Obs.enter obs "pa.epoch";
            Obs.note obs "epoch" (Obs.Int idx);
            Obs.note obs "first_round" (Obs.Int first);
            Obs.note obs "last_round" (Obs.Int last);
            let words = ref 0 in
            for r = first to last do
              if r - 1 < Array.length curve then words := !words + curve.(r - 1)
            done;
            Obs.note obs "words" (Obs.Int !words);
            Obs.add_rounds obs (last - first + 1);
            Obs.exit obs;
            covered := last
          end)
        (Schedule.epochs ~max_delay ~rounds);
      Obs.add_rounds obs (rounds - !covered)

(* Ledger entries against the open "pa" span: rounds vs the scheduling
   bound c + d·log n, and max per-edge traced words vs the shortcut's
   Def 2.2 congestion (each part crosses an edge O(1) times, so the
   ratio staying O(1) is exactly the load-spreading claim). *)
let record_ledger obs profile ~congestion ~predicted_rounds ~observed_rounds =
  match profile with
  | None -> ()
  | Some p ->
      Obs.bound obs ~metric:"rounds"
        ~predicted:(float_of_int predicted_rounds)
        ~observed:(float_of_int observed_rounds);
      Obs.bound obs ~metric:"congestion"
        ~predicted:(float_of_int congestion)
        ~observed:
          (float_of_int (Array.fold_left max 0 (Trace.Profile.edge_words p)))
