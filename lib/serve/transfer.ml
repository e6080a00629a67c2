module W = Sun_tensor.Workload
module A = Sun_arch.Arch
module M = Sun_mapping.Mapping
module Model = Sun_cost.Model
module Opt = Sun_core.Optimizer

(* Bumped by every change that moves a searched mapping or its cost; see
   DESIGN.md for when. *)
let search_version = 1

let ( let* ) = Result.bind

let current doc = Json.member "search" doc = Some (Json.Int search_version)

(* The fields the pipeline adds to every stored document: the search version
   it was computed under, and what the cache needs to index it by shape
   family and {!seed_of_doc} to line its dims up with a future family
   member's. *)
let stored_fields ~config w a =
  [
    ("search", Json.Int search_version);
    ("family", Json.String (Fingerprint.structural ~config w a));
    ( "bounds",
      Json.List
        (List.map (fun b -> Json.Int b) (Array.to_list (Fingerprint.structural_bounds w))) );
    ("sdims", Json.List (List.map (fun d -> Json.String d) (Fingerprint.structural_dims w)));
  ]

let string_list = function
  | Json.List l ->
    List.fold_left
      (fun acc v -> match (acc, v) with Some xs, Json.String s -> Some (s :: xs) | _ -> None)
      (Some []) l
    |> Option.map List.rev
  | _ -> None

(* Rename a neighbor's levels into [w]'s dim names via the positional
   structural correspondence; [None] if any dim falls outside it. *)
let rename_levels rn levels =
  let exception Unknown_dim in
  let rn_exn d = match rn d with Some d' -> d' | None -> raise Unknown_dim in
  match
    List.map
      (fun (lm : M.level_mapping) ->
        {
          M.temporal = List.map (fun (d, f) -> (rn_exn d, f)) lm.M.temporal;
          M.order = List.map rn_exn lm.M.order;
          M.spatial = List.map (fun (d, f) -> (rn_exn d, f)) lm.M.spatial;
        })
      levels
  with
  | renamed -> Some renamed
  | exception Unknown_dim -> None

(* Rescale the renamed levels to [w]'s bounds in two phases.

   Phase 1 (clip): walking innermost to outermost, each factor keeps its
   gcd with the dim's remaining budget (spatial before temporal — the
   unrolling is the structurally load-bearing choice), and whatever is
   left lands in the top temporal level. Per-dim products then equal the
   new bounds exactly, and every kept factor divides the neighbor's, so
   tile footprints and spatial products never exceed the neighbor's
   known-legal ones: the phase-1 mapping is capacity- and fanout-legal
   whenever the neighbor was.

   Phase 2 (sink): a dim that grew leaves its whole residual at the top
   level, which serializes the growth through the outermost boundary and
   can make the seed orders of magnitude worse than the neighbor deserved.
   Each residual prime is therefore moved to the temporal level where the
   model scores the mapping cheapest ([Model.evaluate] also re-checks
   capacity and fanout per placement, so phase 2 preserves legality move
   by move; a prime that improves nowhere stays at the top). This is a
   handful of model evaluations per seed — noise next to the thousands the
   seeded search is about to spend, and what turns a grown neighbor from a
   worst-case alpha into a competitive one. *)
let rescale ~binding (w : W.t) (a : A.t) levels =
  let arr = Array.of_list levels in
  let n = Array.length arr in
  if n = 0 then []
  else begin
    let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
    let get assoc d = match List.assoc_opt d assoc with Some f -> f | None -> 1 in
    let set assoc d f = (d, f) :: List.remove_assoc d assoc in
    let residuals = ref [] in
    List.iter
      (fun d ->
        let remaining = ref (W.bound w d) in
        let take f =
          let g = gcd f !remaining in
          remaining := !remaining / g;
          g
        in
        for l = 0 to n - 1 do
          let lm = arr.(l) in
          let s = take (get lm.M.spatial d) in
          let t = take (get lm.M.temporal d) in
          arr.(l) <-
            { lm with M.spatial = set lm.M.spatial d s; M.temporal = set lm.M.temporal d t }
        done;
        if !remaining <> 1 then begin
          let top = arr.(n - 1) in
          arr.(n - 1) <-
            { top with M.temporal = set top.M.temporal d (get top.M.temporal d * !remaining) };
          residuals := (d, !remaining) :: !residuals
        end)
      (W.dim_names w);
    let edp () =
      match M.make w (Array.to_list arr) with
      | Error _ -> None
      | Ok m -> (
        match Model.evaluate ~binding w a m with Ok c -> Some c.Model.edp | Error _ -> None)
    in
    let move_temporal ~src ~dst d p =
      arr.(src) <-
        { (arr.(src)) with M.temporal = set arr.(src).M.temporal d (get arr.(src).M.temporal d / p) };
      arr.(dst) <-
        { (arr.(dst)) with M.temporal = set arr.(dst).M.temporal d (get arr.(dst).M.temporal d * p) }
    in
    List.iter
      (fun (d, r) ->
        List.iter
          (fun p ->
            let baseline = edp () in
            let best = ref None in
            for l = 0 to n - 2 do
              move_temporal ~src:(n - 1) ~dst:l d p;
              (match edp () with
              | Some e
                when (match baseline with Some b -> e < b | None -> true)
                     && match !best with Some (e', _) -> e < e' | None -> true ->
                best := Some (e, l)
              | _ -> ());
              move_temporal ~src:l ~dst:(n - 1) d p
            done;
            match !best with
            | Some (_, l) -> move_temporal ~src:(n - 1) ~dst:l d p
            | None -> ())
          (List.concat_map
             (fun (p, k) -> List.init k (fun _ -> p))
             (Sun_util.Factor.prime_factorization r)))
      (List.rev !residuals);
    Array.to_list arr
  end

let stored_levels (w : W.t) doc =
  let* sdims =
    Option.to_result ~none:"no sdims" (Option.bind (Json.member "sdims" doc) string_list)
  in
  let* levels = Result.bind (Json.field "mapping" doc) Codec.decode_mapping_raw in
  match List.combine sdims (Fingerprint.structural_dims w) with
  | exception Invalid_argument _ -> Error "sdims do not line up with the workload's dims"
  | rename ->
    Option.to_result ~none:"a stored dim outside sdims"
      (rename_levels (Fun.flip List.assoc_opt rename) levels)

let seed_of_doc ~config (w : W.t) (a : A.t) doc =
  if not (current doc) then None
  else Option.map (rescale ~binding:config.Opt.binding w a) (Result.to_option (stored_levels w doc))

(* How many nearest family members to rescale and score. Bounds distance
   is a proxy: a slightly farther neighbor whose factors survive rescaling
   can yield a far cheaper seed, so the probe scores a few and keeps the
   best. Each candidate costs one model evaluation on top of the rescale's
   own — noise next to the search it warm-starts. *)
let neighbor_candidates = 3

let find_seed ?(exclude_self = false) ~cache ~config w a =
  let family = Fingerprint.structural ~config w a in
  let bounds = Fingerprint.structural_bounds w in
  let exclude_bounds = if exclude_self then Some bounds else None in
  let docs = Cache.nearest_many ?exclude_bounds cache ~family ~bounds ~k:neighbor_candidates in
  let scored =
    List.filter_map
      (fun doc ->
        match seed_of_doc ~config w a doc with
        | None -> None
        | Some levels -> (
          match M.make w levels with
          | Error _ -> None
          | Ok m -> (
            match Model.evaluate ~binding:config.Opt.binding w a m with
            | Ok c -> Some (c.Model.edp, levels)
            | Error _ -> None)))
      docs
  in
  match List.sort (fun (e, _) (e', _) -> compare e e') scored with
  | (_, levels) :: _ -> Some levels
  | [] -> None
