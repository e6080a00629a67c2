module W = Sun_tensor.Workload
module A = Sun_arch.Arch
module M = Sun_mapping.Mapping
module Model = Sun_cost.Model
module Opt = Sun_core.Optimizer
module Mapspace = Sun_search.Mapspace
module D = Diagnostic

type report = {
  workload : string;
  arch : string;
  mappings_checked : int;
  exhaustive_edp : float;
  search_edp : float;
  no_prune_edp : float;
  diagnostics : Diagnostic.t list;
}

let rel_tol = 1e-6

(* The prefix the bottom-up search holds at boundary [k] on its way to
   [m]: levels below [k] whole, level [k]'s order and spatial unrolls with
   its temporal factors reset to 1, and every level above at the search's
   initial value. *)
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

(* The search's prefix bounds at every boundary of a complete mapping must
   stay below the mapping's true energy and cycles — otherwise the
   alpha-beta test could prune a prefix of this very mapping while it is
   the optimum. *)
let bound_chain_diags w ctx nlevels m (cost : Model.cost) =
  let diags = ref [] in
  let check k what lb actual unit =
    if lb > actual *. (1.0 +. rel_tol) then
      diags :=
        D.error ~level:k D.Bound_overshoot
          (Printf.sprintf "prefix %s bound %.6e%s at boundary %d exceeds the mapping's %.6e%s"
             what lb unit k actual unit)
        :: !diags
  in
  for k = 0 to nlevels - 1 do
    let energy_lb, cycles_lb =
      Model.prefix_lower_bounds ctx ~fixed_levels:k (search_prefix w m ~k)
    in
    check k "energy" energy_lb cost.Model.energy_pj " pJ";
    check k "cycles" cycles_lb cost.Model.cycles ""
  done;
  List.rev !diags

let search_configs =
  let base = { Opt.default_config with Opt.beam_width = 64 } in
  ({ base with Opt.alpha_beta = true }, { base with Opt.alpha_beta = false })

let run_search config w a =
  match Opt.optimize ~config w a with
  | Ok r -> Some r
  | Error _ -> None

let check_bound ?(samples = 64) ?(seed = 0x5057) w a =
  let ctx = Model.context w a in
  let nlevels = A.num_levels a in
  let space = Mapspace.create w a in
  let rng = Sun_util.Rng.create seed in
  let diags = ref [] in
  let checked = ref 0 in
  let consider m =
    match Model.evaluate_ctx ctx m with
    | Error _ -> ()
    | Ok cost ->
      incr checked;
      diags := !diags @ bound_chain_diags w ctx nlevels m cost
  in
  for _ = 1 to samples do
    consider (Mapspace.sample space rng)
  done;
  (* the search's own incumbent is the mapping the bound must protect *)
  let search_edp =
    match run_search (fst search_configs) w a with
    | None -> nan
    | Some r ->
      consider r.Opt.mapping;
      r.Opt.cost.Model.edp
  in
  {
    workload = w.W.name;
    arch = a.A.arch_name;
    mappings_checked = !checked;
    exhaustive_edp = nan;
    search_edp;
    no_prune_edp = nan;
    diagnostics = !diags;
  }

let differential w a =
  let ctx = Model.context w a in
  let nlevels = A.num_levels a in
  let space = Mapspace.create w a in
  let diags = ref [] in
  let checked = ref 0 in
  let best = ref infinity in
  Seq.iter
    (fun m ->
      match Model.evaluate_ctx ctx m with
      | Error _ -> ()
      | Ok cost ->
        incr checked;
        (* verify the bound chain only on mappings at or below the running
           optimum: those are exactly the ones pruning could cost us *)
        if cost.Model.edp <= !best *. (1.0 +. rel_tol) then
          diags := !diags @ bound_chain_diags w ctx nlevels m cost;
        if cost.Model.edp < !best then best := cost.Model.edp)
    (Mapspace.enumerate space);
  let with_ab, without_ab = search_configs in
  let search_edp =
    match run_search with_ab w a with Some r -> r.Opt.cost.Model.edp | None -> nan
  in
  let no_prune_edp =
    match run_search without_ab w a with Some r -> r.Opt.cost.Model.edp | None -> nan
  in
  if !checked = 0 then
    diags :=
      !diags
      @ [
          D.error D.Optimum_pruned
            (Printf.sprintf "no valid mapping of %s on %s exists to compare against" w.W.name
               a.A.arch_name);
        ]
  else begin
    if Float.is_nan search_edp then
      diags :=
        !diags
        @ [
            D.error D.Optimum_pruned
              "alpha-beta search found no mapping although the space contains valid ones";
          ];
    if (not (Float.is_nan search_edp)) && not (Float.is_nan no_prune_edp) then begin
      if search_edp > no_prune_edp *. (1.0 +. rel_tol) then
        diags :=
          !diags
          @ [
              D.error D.Optimum_pruned
                (Printf.sprintf
                   "alpha-beta pruning worsened the search: EDP %.6e with pruning vs %.6e \
                    without"
                   search_edp no_prune_edp);
            ];
      if search_edp > !best *. (1.0 +. rel_tol) then
        diags :=
          !diags
          @ [
              D.error D.Optimum_pruned
                (Printf.sprintf
                   "search EDP %.6e misses the exhaustive optimum %.6e (%s alpha-beta)"
                   search_edp !best
                   (if no_prune_edp > !best *. (1.0 +. rel_tol) then "independent of"
                    else "caused by"));
            ]
    end
  end;
  {
    workload = w.W.name;
    arch = a.A.arch_name;
    mappings_checked = !checked;
    exhaustive_edp = !best;
    search_edp;
    no_prune_edp;
    diagnostics = !diags;
  }

(* Three tiny kernels with distinct reuse structure (matrix-matrix,
   matrix-vector, tensor-times-vector); their full mapspaces on the toy
   hierarchy enumerate in well under a second each. *)
let small_suite () =
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
  [
    ("matmul-4x4x2", Sun_tensor.Catalog.matmul ~m:4 ~n:4 ~k:2 (), arch);
    ("mv-8x4", mv, arch);
    ("ttv-4x4x2", ttv, arch);
  ]

let check_suite () =
  List.map
    (fun (name, w, a) ->
      let r = differential w a in
      { r with workload = name })
    (small_suite ())
