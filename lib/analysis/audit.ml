module W = Sun_tensor.Workload
module A = Sun_arch.Arch
module M = Sun_mapping.Mapping
module Model = Sun_cost.Model
module Opt = Sun_core.Optimizer
module Trie = Sun_core.Order_trie
module Tile_tree = Sun_core.Tile_tree
module Mapspace = Sun_search.Mapspace
module Probe = Sun_cost.Probe
module Listx = Sun_util.Listx
module D = Diagnostic

type injection = No_injection | Drop_order_candidate | Shrink_frontier

type kernel_report = {
  kernel : string;
  arch : string;
  orders_total : int;
  orders_kept : int;
  frontier_checked : int;
  mappings_enumerated : int;
  exhaustive_edp : float;
  search_edp : float;
  diagnostics : D.t list;
}

let rel_tol = 1e-9

(* ------------------------------------------------------------------ *)
(* Probe-derived reuse signatures (independent of the trie's tables)    *)
(* ------------------------------------------------------------------ *)

(* Same semantic probe as [Pruning]: growing dim [d] changes operand
   [op]'s footprint iff [d] indexes it. [Probe] serves it — its footprint
   arithmetic mirrors [W.footprint] directly (bit-identical, pinned by
   QCheck), so the oracle still derives reuse from the projection
   arithmetic and not from the trie's or the evaluator's tables. *)
let probe_changes_footprint probe (op : W.operand) d =
  Probe.changes_footprint probe ~op:op.W.name ~dim:d

(* Per-operand reuse an innermost-first dim sequence earns: the fully
   reused dims absorbed before the first footprint-changing one, plus a
   partial-reuse flag when that blocker is a sliding-window dim. *)
let scan_reuse probe (op : W.operand) innermost_first =
  let sliding = W.sliding_dims op in
  let rec go full = function
    | [] -> (List.sort String.compare full, false)
    | d :: rest ->
      if not (probe_changes_footprint probe op d) then go (d :: full) rest
      else (List.sort String.compare full, List.mem d sliding)
  in
  go [] innermost_first

type rich_sig = (string * (string list * bool)) list
(** per operand name: (sorted full-reuse dims, partial flag); only operands
    with some reuse appear, sorted by name. *)

let rich_sig_of_seq probe (w : W.t) innermost_first : rich_sig =
  List.filter_map
    (fun (op : W.operand) ->
      let full, partial = scan_reuse probe op innermost_first in
      if full = [] && not partial then None else Some (op.W.name, (full, partial)))
    w.W.operands
  |> List.sort compare

(* [a] subsumed by [b]: [b] earns at least the reuse [a] does, operand by
   operand — any tiling run under [b]'s order refills each buffer no more
   often than under [a]'s. *)
let sig_leq (a : rich_sig) (b : rich_sig) =
  List.for_all
    (fun (name, (full_a, partial_a)) ->
      match List.assoc_opt name b with
      | None -> full_a = [] && not partial_a
      | Some (full_b, partial_b) ->
        List.for_all (fun d -> List.mem d full_b) full_a && ((not partial_a) || partial_b))
    a

let string_of_order order = "[" ^ String.concat ", " order ^ "]"

let string_of_sig (s : rich_sig) =
  if s = [] then "(no reuse)"
  else
    String.concat "; "
      (List.map
         (fun (name, (full, partial)) ->
           Printf.sprintf "%s: full {%s}%s" name (String.concat ", " full)
             (if partial then " + partial" else ""))
         s)

(* ------------------------------------------------------------------ *)
(* Exhaustive oracle: best EDP over the full (active-order) mapspace     *)
(* ------------------------------------------------------------------ *)

let exhaustive_best ctx space =
  let checked = ref 0 and best = ref infinity in
  Seq.iter
    (fun m ->
      match Model.evaluate_ctx ctx m with
      | Error _ -> ()
      | Ok cost ->
        incr checked;
        if cost.Model.edp < !best then best := cost.Model.edp)
    (Mapspace.enumerate_active_orders space);
  (!best, !checked)

(* Best EDP over all tilings when order [pi] is imposed at every level —
   the empirical half of a subsumption certificate. *)
let best_with_order w ctx space pi =
  Seq.fold_left
    (fun best m ->
      let levels = Array.to_list (Array.map (fun lm -> { lm with M.order = pi }) m.M.levels) in
      match M.make w levels with
      | Error _ -> best
      | Ok m' -> (
        match Model.evaluate_ctx ctx m' with
        | Error _ -> best
        | Ok cost -> Float.min best cost.Model.edp))
    infinity
    (Mapspace.enumerate_fixed_orders space)

(* ------------------------------------------------------------------ *)
(* Ordering audit (SA031 / SA032)                                       *)
(* ------------------------------------------------------------------ *)

let audit_orders ~inject probe w ctx space ~exhaustive_edp =
  let diags = ref [] in
  let add d = diags := !diags @ [ d ] in
  let dims = W.dim_names w in
  let all_orders = Listx.permutations dims in
  let candidates = Trie.candidates w in
  let cand_sigs =
    List.map
      (fun (c : Trie.candidate) -> (c, rich_sig_of_seq probe w (List.rev c.Trie.order)))
      candidates
  in
  let order_sigs = List.map (fun pi -> (pi, rich_sig_of_seq probe w (List.rev pi))) all_orders in
  let dominators s = List.filter (fun (_, cs) -> sig_leq s cs) cand_sigs in
  (* injection: drop a candidate that is the sole dominator of some order
     (guaranteeing a subsumption hole); if redundancy covers everything,
     drop them all *)
  let cand_sigs =
    match inject with
    | Drop_order_candidate -> (
      let sole =
        List.find_map
          (fun (_, s) -> match dominators s with [ (c, _) ] -> Some c | _ -> None)
          order_sigs
      in
      match sole with
      | Some c -> List.filter (fun ((c', _) : Trie.candidate * _) -> c' != c) cand_sigs
      | None -> [])
    | _ -> cand_sigs
  in
  let dominators s = List.filter (fun (_, cs) -> sig_leq s cs) cand_sigs in
  (* SA031: every full order must be subsumed by a kept candidate *)
  List.iter
    (fun (pi, s) ->
      if dominators s = [] then begin
        let lost_best = best_with_order w ctx space pi in
        let verdict =
          if lost_best >= exhaustive_edp *. (1.0 -. rel_tol) then
            "equal-or-worse: pruning it was empirically lossless, but no candidate certifies it"
          else "STRICTLY BETTER: pruning it lost the optimum"
        in
        add
          (D.error D.Order_not_subsumed
             (Printf.sprintf
                "order %s (reuse %s) is dominated by no trie candidate; certificate: best EDP \
                 with this order at every level %.6e vs exhaustive best %.6e — %s"
                (string_of_order pi) (string_of_sig s) lost_best exhaustive_edp verdict))
      end)
    order_sigs;
  (* SA032: every maximal reuse class some order achieves must be kept *)
  let sigs = Listx.unique compare (List.map snd order_sigs) in
  let maximal = List.filter (fun s -> not (List.exists (fun t -> t <> s && sig_leq s t) sigs)) sigs in
  List.iter
    (fun s ->
      if not (List.exists (fun (_, cs) -> sig_leq s cs) cand_sigs) then
        add
          (D.error D.Trie_incomplete
             (Printf.sprintf "maximal reuse class %s has no dominating trie candidate"
                (string_of_sig s))))
    maximal;
  (List.length all_orders, List.length candidates, !diags)

(* ------------------------------------------------------------------ *)
(* Tiling-frontier audit (SA033 / SA034 / SA035)                        *)
(* ------------------------------------------------------------------ *)

let canonical_point grow asg = List.map (fun d -> (d, Tile_tree.factor_of asg d)) grow

let string_of_point pt =
  "{" ^ String.concat ", " (List.map (fun (d, f) -> Printf.sprintf "%s:%d" d f) pt) ^ "}"

let point_leq grow a b =
  List.for_all (fun d -> Tile_tree.factor_of a d <= Tile_tree.factor_of b d) grow

let audit_frontier ~inject probe w a =
  let diags = ref [] in
  let add d = diags := !diags @ [ d ] in
  let checked = ref 0 in
  let level0 = A.level a 0 in
  List.iter
    (fun (op : W.operand) ->
      match A.partition_for level0 ~role:op.W.name with
      | None -> ()
      | Some part ->
        let grow = W.indexing_dims op in
        if grow <> [] && part.A.capacity_words > 0 then begin
          (* the operand alone in its partition: the oracle's own grouping *)
          let alone = { Probe.part; stored = [| Probe.axes probe ~op:op.W.name |] } in
          let grow_idx = Array.of_list (List.map (Probe.dim_index probe) grow) in
          let ext = Probe.extents probe in
          (* monotone, as Tile_tree.search needs: the footprint grows with extents *)
          let fits_factors factors =
            Array.fill ext 0 (Array.length ext) 1;
            Array.iteri (fun g d -> ext.(d) <- factors.(g)) grow_idx;
            not (Probe.overflows probe alone ext)
          in
          let fits asg =
            fits_factors (Array.of_list (List.map (Tile_tree.factor_of asg) grow))
          in
          let remaining d = W.bound w d in
          let table = Tile_tree.table () in
          let ladders max_steps =
            List.map (fun d -> Tile_tree.ladder ~max_steps (remaining d)) grow
          in
          (* the full divisor ladders, and the optimizer's thinned ones
             wherever thinning drops a rung *)
          let thinnings =
            if ladders Opt.tile_max_steps = ladders max_int then [ max_int ]
            else [ max_int; Opt.tile_max_steps ]
          in
          List.iter
            (fun max_steps ->
              let ladder d = Tile_tree.ladder ~max_steps (remaining d) in
              let where =
                if max_steps = max_int then op.W.name
                else Printf.sprintf "%s (%d-rung ladders)" op.W.name max_steps
              in
              let outcome =
                Tile_tree.search ~max_steps ~table
                  ~remaining:(Array.of_list (List.map remaining grow))
                  ~fits:fits_factors ()
              in
              let frontier =
                List.map (Tile_tree.assignment ~grow_dims:grow) outcome.Tile_tree.frontier
              in
              let frontier =
                match inject with
                | Shrink_frontier -> (
                  match List.rev frontier with _ :: rest -> List.rev rest | [] -> [])
                | _ -> frontier
              in
              (* brute force: maximal fitting points of the ladder grid *)
              let grid =
                Listx.cartesian (List.map (fun d -> List.map (fun f -> (d, f)) (ladder d)) grow)
              in
              let fitting = List.filter fits grid in
              let maximal =
                List.filter
                  (fun p -> not (List.exists (fun q -> q <> p && point_leq grow p q) fitting))
                  fitting
              in
              let canon ps = List.sort compare (List.map (canonical_point grow) ps) in
              let frontier_c = canon frontier and maximal_c = canon maximal in
              List.iter
                (fun pt ->
                  incr checked;
                  let asg = pt in
                  if not (fits asg) then
                    add
                      (D.error ~operand:op.W.name D.Frontier_overflow
                         (Printf.sprintf "frontier tile %s of %s overflows its %d-word partition"
                            (string_of_point pt) where part.A.capacity_words))
                  else
                    List.iter
                      (fun d ->
                        let f = Tile_tree.factor_of asg d in
                        match List.find_opt (fun x -> x > f) (ladder d) with
                        | Some f' when fits ((d, f') :: List.remove_assoc d asg) ->
                          add
                            (D.error ~operand:op.W.name ~dim:d D.Frontier_not_maximal
                               (Printf.sprintf
                                  "frontier tile %s of %s still fits with %s grown %d -> %d"
                                  (string_of_point pt) where d f f'))
                        | _ -> ())
                      grow)
                frontier_c;
              List.iter
                (fun pt ->
                  if not (List.mem pt frontier_c) then
                    add
                      (D.error ~operand:op.W.name D.Frontier_incomplete
                         (Printf.sprintf
                            "maximal fitting tile %s of %s is missing from the tiling frontier"
                            (string_of_point pt) where)))
                maximal_c;
              List.iter
                (fun pt ->
                  if not (List.mem pt maximal_c) then
                    add
                      (D.error ~operand:op.W.name D.Frontier_incomplete
                         (Printf.sprintf
                            "frontier tile %s of %s is not in the brute-force maximal fitting set"
                            (string_of_point pt) where)))
                frontier_c)
            thinnings
        end)
    w.W.operands;
  (!checked, !diags)

let check_frontier ?(inject = No_injection) w a = audit_frontier ~inject (Probe.create w) w a

(* ------------------------------------------------------------------ *)
(* Pruned-best vs exhaustive-best (SA036)                               *)
(* ------------------------------------------------------------------ *)

let search_config = { Opt.default_config with Opt.beam_width = 64 }

let audit_best w a ~exhaustive_edp ~enumerated =
  let diags = ref [] in
  let search_edp =
    match Opt.optimize ~config:search_config w a with
    | Ok r -> r.Opt.cost.Model.edp
    | Error _ -> nan
  in
  if enumerated = 0 then
    diags :=
      [
        D.error D.Best_mismatch
          (Printf.sprintf "no valid mapping of %s on %s exists to audit against" w.W.name
             a.A.arch_name);
      ]
  else if Float.is_nan search_edp then
    diags :=
      [
        D.error D.Best_mismatch
          "pruned search found no mapping although the space contains valid ones";
      ]
  else if search_edp > exhaustive_edp *. (1.0 +. rel_tol) then
    diags :=
      [
        D.error D.Best_mismatch
          (Printf.sprintf
             "pruned search EDP %.9e misses the exhaustive optimum %.9e over %d mappings"
             search_edp exhaustive_edp enumerated);
      ]
  else if search_edp < exhaustive_edp *. (1.0 -. rel_tol) then
    diags :=
      [
        D.error D.Best_mismatch
          (Printf.sprintf
             "pruned search EDP %.9e beats the exhaustive oracle %.9e: the oracle's enumeration \
              is incomplete"
             search_edp exhaustive_edp);
      ]
  else ();
  (search_edp, !diags)

(* ------------------------------------------------------------------ *)
(* Kernel family and drivers                                            *)
(* ------------------------------------------------------------------ *)

let kernels () =
  let arch = Sun_arch.Presets.toy () in
  let c = Sun_tensor.Catalog.conv1d ~k:1 ~c:2 ~p:4 ~r:2 () in
  [
    ("sddmm-2x2x2", Sun_tensor.Catalog.sddmm ~i:2 ~j:2 ~k:2 (), arch);
    ("mmc-2x2x2x1", Sun_tensor.Catalog.mmc ~i:2 ~j:2 ~k:2 ~l:1 (), arch);
    ("ttmc-2x2x2x1x1", Sun_tensor.Catalog.ttmc ~i:2 ~j:2 ~k:2 ~l:1 ~m:1 (), arch);
    ("conv1d-1x2x4x2", c, arch);
    ("mttkrp-4x2x2x1", Sun_tensor.Catalog.mttkrp ~i:4 ~j:2 ~k:2 ~l:1 (), arch);
  ]

let check_kernel ?(inject = No_injection) (name, w, a) =
  let ctx = Model.context w a in
  let space = Mapspace.create w a in
  let probe = Probe.create w in
  let exhaustive_edp, enumerated = exhaustive_best ctx space in
  let orders_total, orders_kept, order_diags =
    audit_orders ~inject probe w ctx space ~exhaustive_edp
  in
  let frontier_checked, frontier_diags = audit_frontier ~inject probe w a in
  let search_edp, best_diags = audit_best w a ~exhaustive_edp ~enumerated in
  {
    kernel = name;
    arch = a.A.arch_name;
    orders_total;
    orders_kept;
    frontier_checked;
    mappings_enumerated = enumerated;
    exhaustive_edp;
    search_edp;
    diagnostics = order_diags @ frontier_diags @ best_diags;
  }

let check_kernels ?(inject = No_injection) ?(limit = 0) () =
  let all = kernels () in
  let picked = if limit <= 0 then all else Listx.take limit all in
  List.map (check_kernel ~inject) picked

(* ------------------------------------------------------------------ *)
(* Serve-side response gate                                             *)
(* ------------------------------------------------------------------ *)

let recheck ?binding w a m ~claimed_energy ~claimed_edp =
  let legality = Legality.check ?binding w a m in
  if D.has_errors legality then legality
  else begin
    let cost_diags =
      match Model.evaluate ?binding w a m with
      | Error msg -> [ D.error D.Cost_drift ("mapping fails cost re-evaluation: " ^ msg) ]
      | Ok cost ->
        let drift what claimed actual =
          let scale = Float.max 1.0 (Float.abs actual) in
          if (not (Float.is_finite claimed)) || Float.abs (claimed -. actual) > rel_tol *. scale
          then
            [
              D.error D.Cost_drift
                (Printf.sprintf "claimed %s %.9e differs from re-evaluated %.9e" what claimed
                   actual);
            ]
          else []
        in
        drift "energy" claimed_energy cost.Model.energy_pj @ drift "EDP" claimed_edp cost.Model.edp
    in
    let probe = Probe.create w in
    let cand_sigs =
      List.map (fun (c : Trie.candidate) -> rich_sig_of_seq probe w (List.rev c.Trie.order))
        (Trie.candidates w)
    in
    let order_diags =
      List.concat
        (List.mapi
           (fun l (lm : M.level_mapping) ->
             let s = rich_sig_of_seq probe w (List.rev lm.M.order) in
             if List.exists (fun cs -> sig_leq s cs) cand_sigs then []
             else
               [
                 D.error ~level:l D.Order_not_subsumed
                   (Printf.sprintf
                      "level order %s (reuse %s) is dominated by no trie candidate"
                      (string_of_order lm.M.order) (string_of_sig s));
               ])
           (Array.to_list m.M.levels))
    in
    legality @ cost_diags @ order_diags
  end
