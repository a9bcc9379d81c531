(* Engine robustness: drive the engines with a "chaos policy" that makes
   arbitrary LEGAL decisions (seeded), and check that every invariant the
   simulator relies on — switch consistency, metrics conservation, port
   accounting — survives arbitrary decision sequences, not just the
   decision patterns real policies produce. *)

open Smbm_prelude
open Smbm_core
open Smbm_traffic
open Smbm_sim

let chaos_proc ~seed =
  let rng = Rng.create ~seed in
  Policy.make ~name:"chaos" ~push_out:true (fun sw ~dest ~value:_ ->
      if not (Proc_switch.is_full sw) then
        (* Sometimes drop even with space: legal for any policy. *)
        if Rng.bernoulli rng ~p:0.8 then Decision.accept else Decision.drop
      else begin
        let nonempty =
          List.filter
            (fun j -> Proc_switch.queue_length sw j > 0)
            (List.init (Proc_switch.n sw) Fun.id)
        in
        match nonempty with
        | [] -> Decision.drop
        | _ ->
          if Rng.bernoulli rng ~p:0.5 then
            let victim = List.nth nonempty (Rng.int rng (List.length nonempty)) in
            if victim = dest && Rng.bernoulli rng ~p:0.5 then Decision.drop
            else Decision.push_out victim
          else Decision.drop
      end)

let chaos_value ~seed =
  let rng = Rng.create ~seed in
  Policy.make ~name:"chaos" ~push_out:true (fun sw ~dest:_ ~value:_ ->
      if not (Value_switch.is_full sw) then
        if Rng.bernoulli rng ~p:0.8 then Decision.accept else Decision.drop
      else begin
        let nonempty =
          List.filter
            (fun j -> Value_switch.queue_length sw j > 0)
            (List.init (Value_switch.n sw) Fun.id)
        in
        match nonempty with
        | [] -> Decision.drop
        | _ ->
          if Rng.bernoulli rng ~p:0.5 then
            Decision.push_out
              (List.nth nonempty (Rng.int rng (List.length nonempty)))
          else Decision.drop
      end)

let prop_proc_engine_fuzz =
  QCheck2.Test.make ~name:"proc engine survives chaos policies" ~count:60
    QCheck2.Gen.(
      let* seed = int_range 1 10_000 in
      let* k = int_range 1 4 in
      let* buffer = int_range 1 6 in
      let* speedup = int_range 1 3 in
      let* flush = int_range 0 7 in
      pure (seed, k, buffer, speedup, flush))
    (fun (seed, k, buffer, speedup, flush) ->
      let config = Proc_config.contiguous ~k ~buffer ~speedup () in
      let inst = Engine.Proc.instance config (chaos_proc ~seed) in
      let rng = Rng.create ~seed:(seed + 1) in
      let workload =
        Workload.of_fun (fun _ ->
            List.init (Rng.int rng 5) (fun _ ->
                Arrival.make ~dest:(Rng.int rng k) ()))
      in
      Experiment.run
        ~params:
          {
            Experiment.slots = 300;
            flush_every = (if flush = 0 then None else Some flush);
            check_every = Some 1;
          }
        ~workload [ inst ];
      (* check_every already raised on any inconsistency; confirm the
         aggregates at the end too. *)
      Metrics.check_conservation inst.Instance.metrics;
      (match inst.Instance.ports with
      | Some ports ->
        Port_stats.total ports = (Metrics.transmitted inst.Instance.metrics)
      | None -> false))

let prop_value_engine_fuzz =
  QCheck2.Test.make ~name:"value engine survives chaos policies" ~count:60
    QCheck2.Gen.(
      let* seed = int_range 1 10_000 in
      let* ports = int_range 1 4 in
      let* k = int_range 1 6 in
      let* buffer = int_range 1 6 in
      let* speedup = int_range 1 3 in
      pure (seed, ports, k, buffer, speedup))
    (fun (seed, ports, k, buffer, speedup) ->
      let config = Value_config.make ~ports ~max_value:k ~buffer ~speedup () in
      let inst = Engine.Value.instance config (chaos_value ~seed) in
      let rng = Rng.create ~seed:(seed + 1) in
      let workload =
        Workload.of_fun (fun _ ->
            List.init (Rng.int rng 5) (fun _ ->
                Arrival.make ~dest:(Rng.int rng ports)
                  ~value:(1 + Rng.int rng k) ()))
      in
      Experiment.run
        ~params:
          { Experiment.slots = 300; flush_every = Some 50; check_every = Some 1 }
        ~workload [ inst ];
      Metrics.check_conservation inst.Instance.metrics;
      (* Value accounting: per-port sums equal the global counter. *)
      match inst.Instance.ports with
      | Some p ->
        let total =
          List.fold_left
            (fun acc i -> acc + Port_stats.transmitted_value p i)
            0
            (List.init (Port_stats.n p) Fun.id)
        in
        total = (Metrics.transmitted_value inst.Instance.metrics)
      | None -> false)

let suite =
  [
    Qc.to_alcotest prop_proc_engine_fuzz;
    Qc.to_alcotest prop_value_engine_fuzz;
  ]
