module M = Sun_mapping.Mapping
module Model = Sun_cost.Model
module Tel = Sun_telemetry.Metrics
module S = Search_state

type direction = S.direction = Bottom_up | Top_down

type intra_order = S.intra_order = Ordering_first | Tiling_first | Unrolling_first

type config = S.config = {
  direction : direction;
  intra : intra_order;
  beam_width : int;
  alpha_beta : bool;
  min_spatial_utilization : float;
  refine : bool;
  binding : Model.binding;
}

(* Unrolling-first is Table VI's first row — the smallest space of the
   bottom-up variants — and lets the spatial level claim extents before the
   tile frontier saturates the same reuse dimensions. *)
let default_config =
  {
    direction = Bottom_up;
    intra = Unrolling_first;
    beam_width = 12;
    alpha_beta = true;
    min_spatial_utilization = 0.5;
    refine = true;
    binding = Fun.id;
  }

type stats = {
  examined : int;
  evaluated : int;
  pruned_alpha_beta : int;
  build_errors : int;
  eval_errors : int;
  tile_fit_tests : int;
  shared_verdicts : int;
  wall_seconds : float;
}

type result = { mapping : M.t; cost : Model.cost; stats : stats }

type injection = S.injection = No_injection | Corrupt_first_build

let tile_max_steps = S.tile_max_steps

(* The search loops count into [st]'s plain mutable fields and the totals
   are flushed to the telemetry registry once per call: the hot paths pay
   nothing for instrumentation beyond what the stats already cost, which is
   what keeps the disabled-telemetry overhead inside the bench's budget. *)
let flush_telemetry (st : S.t) inc wall_seconds =
  if Tel.enabled () then begin
    Tel.count "optimizer.searches" 1;
    Tel.count "optimizer.examined" st.examined;
    Tel.count "optimizer.evaluated" st.evaluated;
    Tel.count "optimizer.pruned_alpha_beta" st.pruned;
    Tel.count "optimizer.build_errors" st.build_errors;
    Tel.count "optimizer.eval_errors" st.eval_errors;
    Tel.count "optimizer.orders_kept" st.orders_kept;
    Tel.count "optimizer.orders_dropped" st.orders_dropped;
    Tel.count "optimizer.tile_candidates" st.tile_candidates;
    Tel.count "optimizer.unroll_candidates" st.unroll_candidates;
    Tel.count "optimizer.tile_fit_tests" st.tile_fit_tests;
    Tel.count "optimizer.shared_verdicts" st.shared_verdicts;
    Tel.observe (Tel.histogram "optimizer.search_s") wall_seconds;
    Incumbent.flush_telemetry inc
  end

let optimize ?(config = default_config) ?(inject = No_injection) ?seed w arch =
  let timer = Sun_util.Stopwatch.start () in
  let st = S.create ~config ~inject w arch and inc = Incumbent.create () in
  Option.iter (Incumbent.install_seed st inc) seed;
  (match config.direction with Bottom_up -> Bottom_up.run st inc | Top_down -> Top_down.run st inc);
  (* the injection hook belongs to the search passes *)
  st.inject <- No_injection;
  if config.refine then Incumbent.refine_search st inc;
  (* the search scored candidates on the allocation-free path; the
     incumbent is built as a [Mapping.t] once, and its single full
     evaluation rebuilds transfers and breakdown (bit-identical
     energy/cycles/EDP to its score) *)
  let final =
    match inc.best with
    | None -> None
    | Some (c, _) -> (
      match M.make w (M.Rows.to_levels w c) with
      | Error _ -> None
      | Ok mapping -> (
        match Model.evaluate_ctx st.ctx mapping with
        | Ok cost -> Some (mapping, cost)
        | Error _ -> None))
  in
  let wall_seconds = Sun_util.Stopwatch.elapsed_s timer in
  flush_telemetry st inc wall_seconds;
  match final with
  | None -> Error "no valid mapping found (does a unit tile fit the innermost buffers?)"
  | Some (mapping, cost) ->
    Ok
      {
        mapping;
        cost;
        stats =
          {
            examined = st.examined;
            evaluated = st.evaluated;
            pruned_alpha_beta = st.pruned;
            build_errors = st.build_errors;
            eval_errors = st.eval_errors;
            tile_fit_tests = st.tile_fit_tests;
            shared_verdicts = st.shared_verdicts;
            wall_seconds;
          };
      }
