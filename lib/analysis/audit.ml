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
  bound_checked : int;
  exhaustive_edp : float;
  search_edp : float;
  no_prune_edp : float;
  diagnostics : D.t list;
}

let rel_tol = 1e-9

(* Relative slack of the bound chain, both for a bound against the
   mapping's cost and for which mappings count as at or below the running
   best. *)
let bound_tol = 1e-6

(* ------------------------------------------------------------------ *)
(* Reuse-signature subsumption (over [Pruning.scan])                    *)
(* ------------------------------------------------------------------ *)

let sig_of_order probe w order = Pruning.scan probe w (List.rev order)

(* [a] subsumed by [b]: [b] earns at least the reuse [a] does, operand by
   operand — any tiling run under [b]'s order refills each buffer no more
   often than under [a]'s. *)
let sig_leq (a : Pruning.reuse) (b : Pruning.reuse) =
  List.for_all
    (fun (name, (full_a, partial_a)) ->
      match List.assoc_opt name b with
      | None -> full_a = [] && not partial_a
      | Some (full_b, partial_b) ->
        List.for_all (fun d -> List.mem d full_b) full_a && ((not partial_a) || partial_b))
    a

let string_of_order order = "[" ^ String.concat ", " order ^ "]"

let string_of_sig (s : Pruning.reuse) =
  if s = [] then "(no reuse)"
  else
    String.concat "; "
      (List.map
         (fun (name, (full, partial)) ->
           Printf.sprintf "%s: full {%s}%s" name (String.concat ", " full)
             (if partial then " + partial" else ""))
         s)

(* ------------------------------------------------------------------ *)
(* Bound chain (SA011)                                                  *)
(* ------------------------------------------------------------------ *)

let search_prefix w (m : M.t) ~k =
  let dims = W.dim_names w in
  let ones = List.map (fun d -> (d, 1)) dims in
  {
    M.levels =
      Array.mapi
        (fun l (lm : M.level_mapping) ->
          if l < k then lm
          else if l = k then { lm with M.temporal = ones }
          else { M.temporal = ones; order = dims; spatial = ones })
        m.M.levels;
  }

(* The overshoots of one (boundary, quantity) over a set of mappings: how
   many mappings, and the worst by bound-to-cost ratio. *)
type overshoot = { mutable count : int; mutable lb : float; mutable actual : float }

let quantities = [| ("energy", " pJ"); ("cycles", "") |]

(* The search's prefix bounds at every boundary of a complete mapping must
   stay below the mapping's true energy and cycles — otherwise the
   alpha-beta test could prune a prefix of this very mapping while it is
   the optimum. The bound is the one the search calls, on packed rows;
   overshoots accumulate in [tally], keyed by (boundary, quantity). *)
let bound_chain tally w ctx m (cost : Model.cost) =
  let note k q lb actual =
    if not (lb <= actual *. (1.0 +. bound_tol)) then
      match Hashtbl.find_opt tally (k, q) with
      | None -> Hashtbl.replace tally (k, q) { count = 1; lb; actual }
      | Some o ->
        o.count <- o.count + 1;
        if lb /. actual > o.lb /. o.actual then begin
          o.lb <- lb;
          o.actual <- actual
        end
  in
  for k = 0 to Array.length m.M.levels - 1 do
    let rows = M.Rows.of_levels w (search_prefix w m ~k).M.levels in
    let b = Model.prefix_lower_bounds_rows ctx ~fixed_levels:k rows in
    note k 0 b.Model.lb_energy_pj cost.Model.energy_pj;
    note k 1 b.Model.lb_cycles cost.Model.cycles
  done

(* One SA011 per (boundary, quantity) that overshot, boundary-major. *)
let chain_diags tally =
  List.map
    (fun ((k, q), o) ->
      let what, unit = quantities.(q) in
      D.error ~level:k D.Bound_overshoot
        (Printf.sprintf
           "prefix %s bound exceeds the mapping's %s at boundary %d on %d mapping(s); worst: \
            bound %.6e%s vs %.6e%s (ratio %.6g)"
           what what k o.count o.lb unit o.actual unit (o.lb /. o.actual)))
    (List.sort compare (List.of_seq (Hashtbl.to_seq tally)))

let search_config = { Opt.default_config with Opt.beam_width = 64 }

let check_bound ?(samples = 64) ?(seed = 0x5057) w a =
  let ctx = Model.context w a in
  let space = Mapspace.create w a in
  let rng = Sun_util.Rng.create seed in
  let checked = ref 0 and tally = Hashtbl.create 8 in
  let consider m =
    match Model.evaluate_ctx ctx m with
    | Error _ -> ()
    | Ok cost ->
      incr checked;
      bound_chain tally w ctx m cost
  in
  for _ = 1 to samples do
    consider (Mapspace.sample space rng)
  done;
  (* the search's own incumbent is the mapping the bound must protect *)
  (match Opt.optimize ~config:search_config w a with
  | Ok r -> consider r.Opt.mapping
  | Error _ -> ());
  (!checked, chain_diags tally)

(* ------------------------------------------------------------------ *)
(* Exhaustive oracle: one walk over the active-order mapspace           *)
(* ------------------------------------------------------------------ *)

type walk = { best : float; enumerated : int; chained : int; chain_diags : D.t list }

(* The exhaustive best, and the bound chain on every mapping at or below
   the running best: exactly the mappings pruning could cost us. *)
let exhaustive w ctx space =
  let best = ref infinity and enumerated = ref 0 and chained = ref 0 and tally = Hashtbl.create 8 in
  Seq.iter
    (fun m ->
      match Model.evaluate_ctx ctx m with
      | Error _ -> ()
      | Ok cost ->
        incr enumerated;
        if cost.Model.edp <= !best *. (1.0 +. bound_tol) then begin
          incr chained;
          bound_chain tally w ctx m cost
        end;
        if cost.Model.edp < !best then best := cost.Model.edp)
    (Mapspace.enumerate_active_orders space);
  { best = !best; enumerated = !enumerated; chained = !chained; chain_diags = chain_diags tally }

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
      (fun (c : Trie.candidate) -> (c, sig_of_order probe w c.Trie.order))
      candidates
  in
  let order_sigs = List.map (fun pi -> (pi, sig_of_order probe w pi)) all_orders in
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
(* Searched vs exhaustive best (SA036), alpha-beta on vs off (SA012)    *)
(* ------------------------------------------------------------------ *)

let audit_best w a (walk : walk) =
  let searched config =
    match Opt.optimize ~config w a with Ok r -> r.Opt.cost.Model.edp | Error _ -> nan
  in
  let search_edp = searched search_config in
  let no_prune_edp = searched { search_config with Opt.alpha_beta = false } in
  let best = walk.best in
  let best_diags =
    if walk.enumerated = 0 then
      [
        Printf.sprintf "no valid mapping of %s on %s exists to audit against" w.W.name
          a.A.arch_name;
      ]
    else if Float.is_nan search_edp then
      [ "pruned search found no mapping although the space contains valid ones" ]
    else if search_edp > best *. (1.0 +. rel_tol) then
      [
        Printf.sprintf "pruned search EDP %.9e misses the exhaustive optimum %.9e over %d mappings"
          search_edp best walk.enumerated;
      ]
    else if search_edp < best *. (1.0 -. rel_tol) then
      [
        Printf.sprintf
          "pruned search EDP %.9e beats the exhaustive oracle %.9e: the oracle's enumeration is \
           incomplete"
          search_edp best;
      ]
    else []
  in
  let ab_diags =
    (* [Float.equal] holds for two NaNs: neither search found a mapping *)
    if Float.equal search_edp no_prune_edp
       || Float.abs (search_edp -. no_prune_edp) <= rel_tol *. Float.abs no_prune_edp
    then []
    else
      [
        D.error D.Optimum_pruned
          (Printf.sprintf "alpha-beta pruning changed the search's answer: EDP %.9e with it vs \
                           %.9e without"
             search_edp no_prune_edp);
      ]
  in
  (search_edp, no_prune_edp, List.map (D.error D.Best_mismatch) best_diags @ ab_diags)

(* ------------------------------------------------------------------ *)
(* Kernel family and drivers                                            *)
(* ------------------------------------------------------------------ *)

let kernels () =
  let arch = Sun_arch.Presets.toy () in
  let mv =
    W.make ~name:"mv-8x4"
      ~dims:[ ("I", 8); ("J", 4) ]
      ~operands:
        [
          { W.name = "y"; kind = `Output; indices = [ W.Dim "I" ] };
          { W.name = "A"; kind = `Input; indices = [ W.Dim "I"; W.Dim "J" ] };
          { W.name = "x"; kind = `Input; indices = [ W.Dim "J" ] };
        ]
  in
  let ttv =
    W.make ~name:"ttv-4x4x2"
      ~dims:[ ("I", 4); ("J", 4); ("K", 2) ]
      ~operands:
        [
          { W.name = "y"; kind = `Output; indices = [ W.Dim "I"; W.Dim "J" ] };
          { W.name = "T"; kind = `Input; indices = [ W.Dim "I"; W.Dim "J"; W.Dim "K" ] };
          { W.name = "v"; kind = `Input; indices = [ W.Dim "K" ] };
        ]
  in
  let c = Sun_tensor.Catalog.conv1d ~k:1 ~c:2 ~p:4 ~r:2 () in
  List.map
    (fun (name, w) -> (name, w, arch))
    [
      ("mv-8x4", mv);
      ("sddmm-2x2x2", Sun_tensor.Catalog.sddmm ~i:2 ~j:2 ~k:2 ());
      ("mmc-2x2x2x1", Sun_tensor.Catalog.mmc ~i:2 ~j:2 ~k:2 ~l:1 ());
      ("ttmc-2x2x2x1x1", Sun_tensor.Catalog.ttmc ~i:2 ~j:2 ~k:2 ~l:1 ~m:1 ());
      ("conv1d-1x2x4x2", c);
      ("mttkrp-4x2x2x1", Sun_tensor.Catalog.mttkrp ~i:4 ~j:2 ~k:2 ~l:1 ());
      ("ttv-4x4x2", ttv);
      ("matmul-4x4x2", Sun_tensor.Catalog.matmul ~m:4 ~n:4 ~k:2 ());
    ]

let check_kernel ~inject (name, w, a) =
  let ctx = Model.context w a in
  let space = Mapspace.create w a in
  let probe = Probe.create w in
  let walk = exhaustive w ctx space in
  let orders_total, orders_kept, order_diags =
    audit_orders ~inject probe w ctx space ~exhaustive_edp:walk.best
  in
  let frontier_checked, frontier_diags = audit_frontier ~inject probe w a in
  let search_edp, no_prune_edp, best_diags = audit_best w a walk in
  {
    kernel = name;
    arch = a.A.arch_name;
    orders_total;
    orders_kept;
    frontier_checked;
    mappings_enumerated = walk.enumerated;
    bound_checked = walk.chained;
    exhaustive_edp = walk.best;
    search_edp;
    no_prune_edp;
    diagnostics = walk.chain_diags @ order_diags @ frontier_diags @ best_diags;
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
      List.map (fun (c : Trie.candidate) -> sig_of_order probe w c.Trie.order)
        (Trie.candidates w)
    in
    let order_diags =
      List.concat
        (List.mapi
           (fun l (lm : M.level_mapping) ->
             let s = sig_of_order probe w lm.M.order in
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
