module W = Sun_tensor.Workload
module Reuse = Sun_tensor.Reuse
module Trie = Sun_core.Order_trie
module Probe = Sun_cost.Probe
module D = Diagnostic

type report = {
  workload : string;
  orderings : int;
  dropped_dims_checked : int;
  diagnostics : Diagnostic.t list;
}

type reuse = (string * (string list * bool)) list

(* Independent innermost-first reuse scan, mirroring the cost model's
   refill absorption: per operand, the dims absorbed before the first one
   that changes its footprint (full reuse), plus a partial-reuse flag when
   that blocker is a sliding-window dim. The footprint test is a semantic
   probe on the projection arithmetic itself (two footprint evaluations),
   so it cannot agree with a buggy dim-name table by construction. Probing
   at extent 2 vs 1 suffices: every axis extent is affine in each dim
   extent with non-negative coefficients, so it either never moves or
   moves already at 2. [Probe]'s footprints are bit-identical to direct
   [W.footprint] recomputation (pinned by QCheck). *)
let scan probe (w : W.t) innermost_first : reuse =
  let scan_op (op : W.operand) =
    let sliding = W.sliding_dims op in
    let rec go full = function
      | [] -> (List.sort String.compare full, false)
      | d :: rest ->
        if not (Probe.changes_footprint probe ~op:op.W.name ~dim:d) then go (d :: full) rest
        else (List.sort String.compare full, List.mem d sliding)
    in
    go [] innermost_first
  in
  List.filter_map
    (fun (op : W.operand) ->
      match scan_op op with [], false -> None | r -> Some (op.W.name, r))
    w.W.operands
  |> List.sort compare

let signature_of_scans scans =
  List.concat_map
    (fun (name, (full, partial)) ->
      (if full <> [] then [ (name, Trie.Full) ] else [])
      @ if partial then [ (name, Trie.Partial) ] else [])
    scans
  |> List.sort compare

let check (w : W.t) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let dims = W.dim_names w in
  (* one probe per check: its scratch lives and dies with this scope *)
  let probe = Probe.create w in
  let reuse = Reuse.analyze w in
  (* 1. the reuse table must agree with the footprint probe and partition
     the dims for every operand *)
  List.iter
    (fun (e : Reuse.entry) ->
      let op = e.Reuse.operand in
      List.iter
        (fun d ->
          let indexing = List.mem d e.Reuse.indexed_by in
          let reused = List.mem d e.Reuse.reused_by in
          let changes = Probe.changes_footprint probe ~op:op.W.name ~dim:d in
          if indexing && reused then
            add
              (D.error ~dim:d ~operand:op.W.name D.Pruning_unsound
                 (Printf.sprintf "dim %s is both an indexing and a reuse dim of %s" d op.W.name));
          if (not indexing) && not reused then
            add
              (D.error ~dim:d ~operand:op.W.name D.Pruning_unsound
                 (Printf.sprintf "dim %s is in neither class for %s" d op.W.name));
          if reused && changes then
            add
              (D.error ~dim:d ~operand:op.W.name D.Pruning_unsound
                 (Printf.sprintf
                    "dim %s is classed as a reuse dim of %s but growing it changes the footprint"
                    d op.W.name));
          if indexing && not changes then
            add
              (D.warning ~dim:d ~operand:op.W.name D.Pruning_unsound
                 (Printf.sprintf
                    "dim %s is classed as an indexing dim of %s but does not change its footprint"
                    d op.W.name)))
        dims)
    reuse;
  (* 2 + 3. every trie candidate: independent signature, and the dims it
     will drop are genuinely non-reuse for the reused operand *)
  let candidates = Trie.candidates w in
  let dropped_checked = ref 0 in
  let sorted_dims = List.sort String.compare dims in
  List.iter
    (fun (c : Trie.candidate) ->
      if List.sort String.compare c.Trie.order <> sorted_dims then
        add
          (D.error D.Pruning_unsound
             (Printf.sprintf "trie order [%s] is not a permutation of the workload dims"
                (String.concat ", " c.Trie.order)));
      let scans = scan probe w c.Trie.suffix in
      let expected = signature_of_scans scans in
      if expected <> c.Trie.signature then
        add
          (D.error D.Pruning_unsound
             (Printf.sprintf "suffix [%s]: trie signature disagrees with independent reuse scan"
                (String.concat ", " c.Trie.suffix)));
      let expected_reused =
        List.filter_map (fun (n, (full, _)) -> if full <> [] then Some n else None) scans
      in
      if expected_reused <> List.sort String.compare c.Trie.reused_operands then
        add
          (D.error D.Pruning_unsound
             (Printf.sprintf "suffix [%s]: reused-operand set disagrees with independent scan"
                (String.concat ", " c.Trie.suffix)));
      (* the Tiling / Unrolling Principles drop every dim outside the grow
         set of the reused operand; each must be footprint-invariant *)
      List.iter
        (fun op_name ->
          match W.find_operand w op_name with
          | exception Not_found ->
            add
              (D.error ~operand:op_name D.Pruning_unsound
                 (Printf.sprintf "trie names unknown operand %s" op_name))
          | op ->
            let grow = W.indexing_dims op in
            List.iter
              (fun d ->
                if not (List.mem d grow) then begin
                  incr dropped_checked;
                  if Probe.changes_footprint probe ~op:op_name ~dim:d then
                    add
                      (D.error ~dim:d ~operand:op_name D.Pruning_unsound
                         (Printf.sprintf
                            "dim %s is dropped at levels reusing %s but growing it changes the \
                             reused footprint"
                            d op_name))
                end)
              dims)
        c.Trie.reused_operands)
    candidates;
  {
    workload = w.W.name;
    orderings = List.length candidates;
    dropped_dims_checked = !dropped_checked;
    diagnostics = List.rev !diags;
  }

let check_many named =
  List.map
    (fun (name, w) ->
      let r = check w in
      { r with workload = name })
    named
