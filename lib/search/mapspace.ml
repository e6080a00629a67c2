module W = Sun_tensor.Workload
module A = Sun_arch.Arch
module M = Sun_mapping.Mapping
module Factor = Sun_util.Factor
module Rng = Sun_util.Rng
module Listx = Sun_util.Listx

type t = {
  w : W.t;
  arch : A.t;
  dims : W.dim list;
  num_levels : int;
  spatial_levels : int list;  (** levels with fanout > 1, ascending *)
}

let create w arch =
  let num_levels = A.num_levels arch in
  let spatial_levels =
    List.filter (fun i -> (A.level arch i).A.fanout > 1) (Listx.range num_levels)
  in
  { w; arch; dims = W.dim_names w; num_levels; spatial_levels }

(* Each dimension is split into [num_levels] temporal factors plus one
   spatial factor per spatial level. *)
let slots t = t.num_levels + List.length t.spatial_levels

let factorial n =
  let rec go acc k = if k <= 1 then acc else go (acc *. float_of_int k) (k - 1) in
  go 1.0 n

let size_no_orders t =
  List.fold_left
    (fun acc (_, b) -> acc *. float_of_int (Factor.count_splits b (slots t)))
    1.0 t.w.W.dims

let size t =
  let orders_per_level = factorial (List.length t.dims) in
  let order_choices =
    (* one loop order per memory level *)
    List.fold_left (fun acc _ -> acc *. orders_per_level) 1.0 (Listx.range t.num_levels)
  in
  size_no_orders t *. order_choices

(* Assemble level mappings from per-dim temporal chains and per-spatial-level
   factors. [temporal d] is an int array of length num_levels; [spatial d]
   maps spatial levels to factors. *)
let build t ~temporal ~spatial ~orders =
  let level i =
    {
      M.temporal = List.map (fun d -> (d, (temporal d).(i))) t.dims;
      order = orders i;
      spatial =
        List.map
          (fun d -> (d, if List.mem i t.spatial_levels then spatial d i else 1))
          t.dims;
    }
  in
  M.make_exn t.w (List.init t.num_levels level)

let sample t rng =
  (* spatial factors first, each level's product bounded by its fanout *)
  let spatial_tbl = Hashtbl.create 8 in
  let remaining = Hashtbl.create 8 in
  List.iter (fun (d, b) -> Hashtbl.replace remaining d b) t.w.W.dims;
  List.iter
    (fun lvl ->
      let budget = ref (A.level t.arch lvl).A.fanout in
      List.iter
        (fun d ->
          let r = Hashtbl.find remaining d in
          let options = List.filter (fun f -> f <= !budget) (Factor.divisors r) in
          let f = Rng.pick rng options in
          budget := !budget / f;
          Hashtbl.replace remaining d (r / f);
          Hashtbl.replace spatial_tbl (d, lvl) f)
        (Rng.shuffle rng t.dims))
    t.spatial_levels;
  (* temporal chains on what is left: a uniform random ordered split,
     drawn per prime via stars-and-bars so huge dimensions stay cheap *)
  let random_split r =
    let slots = t.num_levels in
    let chain = Array.make slots 1 in
    List.iter
      (fun (p, k) ->
        (* uniform weak composition of k into [slots] parts *)
        let positions = Rng.shuffle rng (Listx.range (k + slots - 1)) in
        let bars = List.sort compare (Listx.take (slots - 1) positions) in
        let rec fill slot prev = function
          | [] ->
            for _ = 1 to k + slots - 1 - prev - (slots - 1 - slot) do
              chain.(slot) <- chain.(slot) * p
            done
          | bar :: rest ->
            for _ = 1 to bar - prev do
              chain.(slot) <- chain.(slot) * p
            done;
            fill (slot + 1) (bar + 1) rest
        in
        fill 0 0 bars)
      (Factor.prime_factorization r);
    chain
  in
  let temporal_tbl = Hashtbl.create 8 in
  List.iter
    (fun d -> Hashtbl.replace temporal_tbl d (random_split (Hashtbl.find remaining d)))
    t.dims;
  let orders_arr = Array.init t.num_levels (fun _ -> Rng.shuffle rng t.dims) in
  build t
    ~temporal:(fun d -> Hashtbl.find temporal_tbl d)
    ~spatial:(fun d lvl -> Hashtbl.find spatial_tbl (d, lvl))
    ~orders:(fun i -> orders_arr.(i))

(* Lazy cross product of lazy choice lists. *)
let rec seq_cartesian = function
  | [] -> Seq.return []
  | choices :: rest ->
    Seq.concat_map
      (fun pick -> Seq.map (fun tail -> pick :: tail) (seq_cartesian rest))
      (List.to_seq choices)

let enumerate_with t ~orders_per_level =
  (* per dim: all (spatial per spatial level, temporal chain) assignments *)
  let per_dim d =
    let b = W.bound t.w d in
    let rec spatial_assignments levels b =
      match levels with
      | [] -> [ ([], b) ]
      | lvl :: rest ->
        List.concat_map
          (fun f ->
            if f <= (A.level t.arch lvl).A.fanout then
              List.map (fun (assign, left) -> ((lvl, f) :: assign, left)) (spatial_assignments rest (b / f))
            else [])
          (Factor.divisors b)
    in
    List.concat_map
      (fun (assign, left) ->
        List.map (fun chain -> (assign, Array.of_list chain)) (Factor.splits left t.num_levels))
      (spatial_assignments t.spatial_levels b)
  in
  let dim_choices = List.map per_dim t.dims in
  let assignments = seq_cartesian dim_choices in
  Seq.concat_map
    (fun assignment ->
      let tbl = Hashtbl.create 8 in
      List.iter2 (fun d a -> Hashtbl.replace tbl d a) t.dims assignment;
      let temporal d = snd (Hashtbl.find tbl d) in
      let spatial d lvl =
        match List.assoc_opt lvl (fst (Hashtbl.find tbl d)) with Some f -> f | None -> 1
      in
      Seq.filter_map
        (fun orders ->
          (* the per-level fanout bound was enforced per dim; the joint
             product can still overflow — skip those assignments *)
          let ok =
            List.for_all
              (fun lvl ->
                let p = List.fold_left (fun acc d -> acc * spatial d lvl) 1 t.dims in
                p <= (A.level t.arch lvl).A.fanout)
              t.spatial_levels
          in
          if ok then Some (build t ~temporal ~spatial ~orders:(fun i -> List.nth orders i))
          else None)
        orders_per_level)
    assignments

let enumerate t =
  let all_orders = Listx.permutations t.dims in
  let per_level = List.init t.num_levels (fun _ -> all_orders) in
  let order_combos = List.of_seq (seq_cartesian per_level) in
  enumerate_with t ~orders_per_level:(List.to_seq order_combos)

let enumerate_fixed_orders t =
  let canonical = List.init t.num_levels (fun _ -> t.dims) in
  enumerate_with t ~orders_per_level:(Seq.return canonical)

(* Dims with workload bound 1 carry factor 1 at every level of every
   assignment, and the cost model skips factor-1 loops entirely (both the
   temporal reuse scan and the spatial multipliers test [> 1]), so their
   position in a loop order can never change a mapping's cost. Pinning them
   outermost and permuting only the active dims visits one representative
   per cost-equivalence class — the minimum over this space equals the
   minimum over [enumerate]. *)
let active_dims t = List.filter (fun d -> W.bound t.w d > 1) t.dims

let enumerate_active_orders t =
  let active = active_dims t in
  let inactive = List.filter (fun d -> W.bound t.w d <= 1) t.dims in
  let all_orders = List.map (fun p -> inactive @ p) (Listx.permutations active) in
  let per_level = List.init t.num_levels (fun _ -> all_orders) in
  enumerate_with t ~orders_per_level:(seq_cartesian per_level)
