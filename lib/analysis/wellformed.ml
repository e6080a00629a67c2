module W = Sun_tensor.Workload
module A = Sun_arch.Arch
module Opt = Sun_core.Optimizer
module D = Diagnostic

let arch_diagnostic v =
  let msg = A.violation_message v in
  match (v : A.violation) with
  | Too_few_levels _ | Bad_mac_throughput _ -> D.error D.Arch_malformed msg
  | Top_bounded { level; _ } | Interior_unbounded { level; _ } ->
    D.error ~level D.Arch_malformed msg
  | Bad_fanout { level; _ } | No_partitions { level; _ } -> D.error ~level D.Arch_malformed msg
  | Negative_capacity { level; partition; _ }
  | Zero_capacity { level; partition; _ }
  | Duplicate_partition { level; partition; _ }
  | Nonpositive_bandwidth { level; partition; _ } ->
    D.error ~level ~partition D.Arch_malformed msg
  | Nonfinite_energy e -> D.error ?level:e.e_level ?partition:e.e_partition D.Arch_malformed msg

(* [Arch.violations] states the rules [Arch.make] enforces; the warnings
   flag a value the model accepts: a negative energy. *)
let check_arch (a : A.t) =
  List.map arch_diagnostic (A.violations a)
  @ List.filter_map
      (fun (e : A.energy) ->
        if e.A.e_pj < 0.0 then
          Some
            (D.warning ?level:e.A.e_level ?partition:e.A.e_partition D.Arch_malformed
               (Printf.sprintf "%s is negative (%g)" e.A.e_name e.A.e_pj))
        else None)
      (A.energies a)

let check_workload (w : W.t) =
  List.map
    (fun v ->
      let msg = W.violation_message v in
      match (v : W.violation) with
      | Unknown_dim { operand; dim } -> D.error ~dim ~operand D.Unknown_dim msg
      | Nonpositive_bound { dim; _ } | Duplicate_dim dim | Unused_dim dim ->
        D.error ~dim D.Workload_malformed msg
      | Empty_affine { operand } -> D.error ~operand D.Workload_malformed msg
      | Nonpositive_coefficient { operand; dim; _ } ->
        D.error ~dim ~operand D.Workload_malformed msg
      | Output_count _ -> D.error D.Workload_malformed msg)
    (W.violations w)

let check_config (c : Opt.config) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  if c.Opt.beam_width < 1 then
    add
      (D.error D.Config_invalid
         (Printf.sprintf "beam_width %d (must be >= 1)" c.Opt.beam_width));
  if c.Opt.min_spatial_utilization < 0.0 || c.Opt.min_spatial_utilization > 1.0 then
    add
      (D.error D.Config_invalid
         (Printf.sprintf "min_spatial_utilization %g outside [0, 1]" c.Opt.min_spatial_utilization));
  List.rev !diags

let check_pair ?(binding = Fun.id) (w : W.t) (a : A.t) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  (* storage reachability: an operand accepted nowhere has no storage chain
     and cannot be scheduled (the cost model would reject every mapping) *)
  List.iter
    (fun (op : W.operand) ->
      let role = binding op.W.name in
      let stored = List.exists (fun l -> A.stores l ~role) a.A.levels in
      if not stored then
        add
          (D.error ~operand:op.W.name D.Operand_unstored
             (Printf.sprintf "no partition at any level accepts operand %s (role %s)" op.W.name
                role)))
    w.W.operands;
  (* unit-tile feasibility: even a 1-element tile of every stored operand
     must fit each bounded partition, or no mapping exists at all *)
  List.iteri
    (fun li (l : A.level) ->
      if not l.A.unbounded then
        List.iter
          (fun ((p : A.partition), stored_ops) ->
            let unit_words = List.length stored_ops in
            if unit_words > p.A.capacity_words then
              add
                (D.error ~level:li ~partition:p.A.part_name D.Capacity_overflow
                   (Printf.sprintf
                      "unit tile of %d operand(s) needs %d words, partition %s holds %d"
                      unit_words unit_words p.A.part_name p.A.capacity_words)))
          (Sun_cost.Probe.stored_by_partition w l ~binding))
    a.A.levels;
  List.rev !diags

let check_request ?binding ~config w a =
  check_arch a @ check_workload w @ check_config config @ check_pair ?binding w a
