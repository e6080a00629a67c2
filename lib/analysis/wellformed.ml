module W = Sun_tensor.Workload
module A = Sun_arch.Arch
module Opt = Sun_core.Optimizer
module D = Diagnostic

let check_arch (a : A.t) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let top = A.num_levels a - 1 in
  if A.num_levels a < 2 then
    add (D.error D.Arch_malformed "an architecture needs at least two levels (buffer + DRAM)");
  List.iteri
    (fun li (l : A.level) ->
      if l.A.unbounded && li <> top then
        add
          (D.error ~level:li D.Arch_malformed
             (Printf.sprintf "level %s is unbounded but is not the outermost level" l.A.level_name));
      if li = top && not l.A.unbounded then
        add
          (D.error ~level:li D.Arch_malformed
             (Printf.sprintf "outermost level %s must be unbounded (DRAM)" l.A.level_name));
      if l.A.fanout < 1 then
        add
          (D.error ~level:li D.Arch_malformed
             (Printf.sprintf "level %s has fanout %d (must be >= 1)" l.A.level_name l.A.fanout));
      if l.A.partitions = [] then
        add
          (D.error ~level:li D.Arch_malformed
             (Printf.sprintf "level %s has no partitions" l.A.level_name));
      List.iter
        (fun (p : A.partition) ->
          if p.A.capacity_words < 0 then
            add
              (D.error ~level:li ~partition:p.A.part_name D.Arch_malformed
                 (Printf.sprintf "partition %s has negative capacity %d" p.A.part_name
                    p.A.capacity_words));
          if (not l.A.unbounded) && p.A.capacity_words = 0 then
            add
              (D.error ~level:li ~partition:p.A.part_name D.Arch_malformed
                 (Printf.sprintf "partition %s of bounded level %s has zero capacity"
                    p.A.part_name l.A.level_name));
          if p.A.bandwidth <= 0.0 then
            add
              (D.error ~level:li ~partition:p.A.part_name D.Arch_malformed
                 (Printf.sprintf "partition %s has non-positive bandwidth %g" p.A.part_name
                    p.A.bandwidth));
          if p.A.read_energy < 0.0 || p.A.write_energy < 0.0 then
            add
              (D.warning ~level:li ~partition:p.A.part_name D.Arch_malformed
                 (Printf.sprintf "partition %s has negative access energy" p.A.part_name)))
        l.A.partitions)
    a.A.levels;
  if a.A.mac_throughput < 1 then
    add
      (D.error D.Arch_malformed
         (Printf.sprintf "mac_throughput %d (must be >= 1)" a.A.mac_throughput));
  if a.A.mac_energy < 0.0 then
    add (D.warning D.Arch_malformed (Printf.sprintf "negative MAC energy %g" a.A.mac_energy));
  List.rev !diags

let check_workload (w : W.t) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let dims = W.dim_names w in
  List.iter
    (fun (d, b) ->
      if b <= 0 then
        add
          (D.error ~dim:d D.Workload_malformed (Printf.sprintf "dim %s has bound %d (must be >= 1)" d b)))
    w.W.dims;
  let seen = Hashtbl.create 8 in
  List.iter
    (fun d ->
      if Hashtbl.mem seen d then
        add (D.error ~dim:d D.Workload_malformed (Printf.sprintf "dim %s declared twice" d));
      Hashtbl.replace seen d ())
    dims;
  (match List.filter (fun (op : W.operand) -> op.W.kind = `Output) w.W.operands with
  | [ _ ] -> ()
  | outs ->
    add
      (D.error D.Workload_malformed
         (Printf.sprintf "expected exactly 1 output operand, found %d" (List.length outs))));
  List.iter
    (fun (op : W.operand) ->
      List.iter
        (fun idx ->
          (match idx with
          | W.Dim _ -> ()
          | W.Affine [] ->
            add (D.error ~operand:op.W.name D.Workload_malformed "empty affine index")
          | W.Affine terms ->
            List.iter
              (fun (d, c) ->
                if c <= 0 then
                  add
                    (D.error ~dim:d ~operand:op.W.name D.Workload_malformed
                       (Printf.sprintf "non-positive affine coefficient %d on %s" c d)))
              terms);
          List.iter
            (fun d ->
              if not (List.mem d dims) then
                add
                  (D.error ~dim:d ~operand:op.W.name D.Unknown_dim
                     (Printf.sprintf "operand %s indexes unknown dim %s" op.W.name d)))
            (W.index_dims idx))
        op.W.indices)
    w.W.operands;
  List.iter
    (fun d ->
      let used = List.exists (fun (op : W.operand) -> W.is_indexing op d) w.W.operands in
      if not used then
        add
          (D.error ~dim:d D.Workload_malformed (Printf.sprintf "dim %s indexes no operand" d)))
    dims;
  List.rev !diags

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
