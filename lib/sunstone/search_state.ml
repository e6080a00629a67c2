(* The state one search call shares across its phases: the problem, the
   model context, the capacity table, the counts behind {!Optimizer.stats},
   and the row, tile and unroll helpers every pass builds candidates
   with. The incumbent is {!Incumbent}'s. *)

module W = Sun_tensor.Workload
module A = Sun_arch.Arch
module M = Sun_mapping.Mapping
module Rows = M.Rows
module Model = Sun_cost.Model
module Probe = Sun_cost.Probe

type direction = Bottom_up | Top_down

type intra_order = Ordering_first | Tiling_first | Unrolling_first

type config = {
  direction : direction;
  intra : intra_order;
  beam_width : int;
  alpha_beta : bool;
  min_spatial_utilization : float;
  refine : bool;  (** post-search local refinement of the incumbent *)
  binding : Model.binding;
}

(* Test hook: force the row check to fail exactly once so the error
   accounting is exercisable from tests without a pathological preset. *)
type injection = No_injection | Corrupt_first_build

type t = {
  w : W.t;
  arch : A.t;
  cfg : config;
  ctx : Model.ctx;
  probe : Probe.t;  (** footprint probes, scoped to this search (DESIGN.md §3.7) *)
  dim_array : W.dim array;  (** the workload's dims, for {!M.dim_position} *)
  bounds : int array;  (** each dim's bound, by dim position: the rows' products *)
  grow_pos : int array array;
      (** the distinct grow-dim lists an operand choice can select
          ({!grow_index}), the unrestricted one first, each as its dims'
          positions; a list's index keys the per-pass tile and unroll
          memos *)
  grow_of_op : (string * int) list;  (** operand name -> index into [grow_pos] *)
  table : Tile_tree.table;  (** the ladders of every tile and unroll search of this call *)
  fits : Probe.table;  (** the capacity predicate's per-level partitions *)
  mutable fit_level : int;  (** [tile_fits] scratch, set per tile search: the level tiled *)
  mutable fit_base : int array;  (** extent already placed below it, per probe dim *)
  mutable fit_grow : int array;  (** probe dim of each grow dim, in grow order *)
  mutable examined : int;
  mutable evaluated : int;
  mutable pruned : int;
  mutable build_errors : int;  (** candidates failing the row check, no longer silent *)
  mutable eval_errors : int;  (** cost-model rejections, no longer silent *)
  mutable orders_kept : int;
  mutable orders_dropped : int;
  mutable tile_candidates : int;  (** tile-tree frontier tiles emitted *)
  mutable unroll_candidates : int;  (** spatial unroll choices emitted *)
  mutable tile_fit_tests : int;  (** [tile_fits] calls *)
  mutable shared_verdicts : int;  (** candidates whose outcome came from their group *)
  mutable inject : injection;
}

(* [grow_pos] and [grow_of_op] of the search state: operands indexed by
   the same dims share one grow list, and so one memo entry. *)
let grow_table (w : W.t) dims dim_array =
  let grows = ref [ dims ] in
  let index_of g =
    match List.find_index (List.equal String.equal g) (List.rev !grows) with
    | Some i -> i
    | None ->
      grows := g :: !grows;
      List.length !grows - 1
  in
  let grow_of_op =
    List.map (fun (op : W.operand) -> (op.W.name, index_of (W.indexing_dims op))) w.W.operands
  in
  let positions g = Array.of_list (List.map (M.dim_position dim_array 0) g) in
  (Array.of_list (List.rev_map positions !grows), grow_of_op)

let create ~config ~inject w arch =
  let dims = W.dim_names w in
  let dim_array = Array.of_list dims in
  let grow_pos, grow_of_op = grow_table w dims dim_array in
  let probe = Probe.create w in
  {
    w;
    arch;
    cfg = config;
    ctx = Model.context ~binding:config.binding w arch;
    probe;
    dim_array;
    bounds = Array.of_list (List.map (W.bound w) dims);
    grow_pos;
    grow_of_op;
    table = Tile_tree.table ();
    fits = Probe.fit_table probe w arch ~binding:config.binding;
    fit_level = 0;
    fit_base = [||];
    fit_grow = [||];
    examined = 0;
    evaluated = 0;
    pruned = 0;
    build_errors = 0;
    eval_errors = 0;
    orders_kept = 0;
    orders_dropped = 0;
    tile_candidates = 0;
    unroll_candidates = 0;
    tile_fit_tests = 0;
    shared_verdicts = 0;
    inject;
  }

(* Every factor 1 and the identity order, one shared row each. *)
let initial_rows st =
  let n = Array.length st.dim_array and nl = A.num_levels st.arch in
  let ones = Array.make n 1 in
  {
    Rows.temporal = Array.make nl ones;
    spatial = Array.make nl ones;
    order = Array.make nl (Array.init n Fun.id);
  }

(* [rows] with entry [l] replaced: candidates share every row they do not
   change, and no row is mutated once built. On a row, an entry is a
   factor or an order position. *)
let set rows l row =
  let a = Array.copy rows in
  a.(l) <- row;
  a

(* Does the tile with the given grow-dim factors fit every partition of
   [st.fit_level]? Each grow dim's extent is its base times its factor;
   the other dims were loaded into the probe's extent vector by
   [search_tiles]. *)
(* sunstone-hot *)
let tile_fits st factors =
  st.tile_fit_tests <- st.tile_fit_tests + 1;
  let ext = Probe.extents st.probe and base = st.fit_base and grow = st.fit_grow in
  for g = 0 to Array.length grow - 1 do
    let d = Array.unsafe_get grow g in
    ext.(d) <- Array.unsafe_get base d * factors.(g)
  done;
  Probe.level_fits st.probe st.fits ~level:st.fit_level ext

let tile_max_steps = 20

(* The frontier of fitting tiles at [level] over grow list [g], with
   [remaining] extents by grow position: every dim starts from its [base]
   extent (indexed by probe dim), and a tile multiplies the grow dims'
   extents by its factors. [tile_fits] is monotone: a footprint only
   grows with a factor. [scope] must hold only searches of the same
   [level], [base] and [g]. *)
let search_tiles st ~scope ~level ~base g ~remaining =
  Array.blit base 0 (Probe.extents st.probe) 0 (Array.length base);
  st.fit_level <- level;
  st.fit_base <- base;
  st.fit_grow <- st.grow_pos.(g);
  let out =
    Tile_tree.search ~max_steps:tile_max_steps ~scope ~table:st.table ~remaining
      ~fits:(tile_fits st) ()
  in
  st.examined <- st.examined + out.Tile_tree.explored;
  out.Tile_tree.frontier

(* The grow dimensions of the Tiling / Unrolling Principles: the indexing
   dimensions of the operand temporally reused at the boundary. With no
   reused operand the principles give no restriction. An operand choice
   selects its grow list by index into [st.grow_pos]. *)
let grow_index st = function Some op_name -> List.assoc op_name st.grow_of_op | None -> 0

let operand_choices (o : Order_trie.candidate) =
  match o.Order_trie.reused_operands with [] -> [ None ] | ops -> List.map (fun x -> Some x) ops

(* A tile or unrolling over grow list [g] (a factor vector, one entry per
   grow position) as a row of factors of every workload dim. *)
let row_of st g factors =
  let pos = st.grow_pos.(g) in
  let row = Array.make (Array.length st.dim_array) 1 in
  for i = 0 to Array.length pos - 1 do
    row.(pos.(i)) <- factors.(i)
  done;
  row

(* [row]'s entries at the grow positions of list [g]. *)
let by_grow st g row = Array.map (fun j -> row.(j)) st.grow_pos.(g)

(* [remaining] divided entrywise by the factor vector [factors]. *)
let divide remaining factors = Array.mapi (fun i r -> r / factors.(i)) remaining

(* The maximal unrollings of grow list [g] over the fanout below [level]
   ({!Unroll.candidates}), with [remaining] extents by grow position, each
   as its factor vector and its row. *)
let unrolls st ~level g ~remaining =
  let out =
    Unroll.candidates ~table:st.table ~fanout:(A.level st.arch level).A.fanout ~remaining
      ~min_utilization:st.cfg.min_spatial_utilization ()
  in
  st.examined <- st.examined + out.Unroll.explored;
  st.unroll_candidates <- st.unroll_candidates + List.length out.Unroll.candidates;
  List.map (fun a -> (a, row_of st g a)) out.Unroll.candidates

(* Spatial unrolling below the innermost memory (e.g. Simba's vector
   lanes): the level-0 unrolling rows of the extents [below] (by dim
   position), one set per protected operand in operand order. Each is a
   candidate, counted as examined. [None] when level 0 has no fanout. *)
let lane_unrolls st below =
  if (A.level st.arch 0).A.fanout <= 1 then None
  else begin
    let rows =
      List.concat_map
        (fun (op : W.operand) ->
          let g = grow_index st (Some op.W.name) in
          List.map snd (unrolls st ~level:0 g ~remaining:(by_grow st g below)))
        st.w.W.operands
    in
    st.examined <- st.examined + List.length rows;
    Some rows
  end

(* Order candidates come with the trie's visit/prune tallies, so the
   kept/dropped split the paper's Table VI accounts for is observable.
   Each comes paired with its order row, checked once here to be a
   permutation: candidates of one group share a row check only then.
   Distinct trie leaves give distinct orders, since no leaf's suffix
   extends another's. *)
let order_candidates st =
  let orders, ostats = Order_trie.candidates_with_stats st.w in
  st.orders_kept <- st.orders_kept + List.length orders;
  st.orders_dropped <- st.orders_dropped + ostats.Order_trie.nodes_pruned;
  List.map
    (fun (o : Order_trie.candidate) ->
      let row = Array.of_list (List.mapi (M.dim_position st.dim_array) o.Order_trie.order) in
      if not (Rows.order_ok (Array.length st.dim_array) row) then
        invalid_arg "Optimizer: an order candidate is not a permutation of the dims";
      (o, row))
    orders

(* Row identity: two rows are the same when they hold the same ints. Rows
   are shared, so most equal rows are the same array. *)
let rec same_from (a : int array) b i =
  i >= Array.length a || (a.(i) = b.(i) && same_from a b (i + 1))

let same_row a b = a == b || (Array.length a = Array.length b && same_from a b 0)

(* The value stored under a row equal to [row], if any: a memo keyed by
   rows, newest entry first. *)
let find_row memo row = List.find_map (fun (r, x) -> if same_row r row then Some x else None) memo

let rec hash_from row i h =
  if i >= Array.length row then h else hash_from row (i + 1) ((h * 31) + row.(i))

(* [h] extended by [row] and a separator, so a sequence of rows hashes
   apart from its concatenation. *)
let hash_row h row = (hash_from row 0 h * 31) - 1

module Int_table = Hashtbl.Make (Int)

(* [x]'s twin in [seen]: the entry met first whose [n] rows ([row x r],
   [r < n]) are the same as [x]'s. When [x] has none it is added to
   [seen], so every later twin of [x] finds [x]. *)
let find_twin seen ~n ~row x =
  let h = ref 0 in
  for r = 0 to n - 1 do
    h := hash_row !h (row x r)
  done;
  let rec same y r = r >= n || (same_row (row x r) (row y r) && same y (r + 1)) in
  match List.find_opt (fun y -> same y 0) (Int_table.find_all seen !h) with
  | Some _ as twin -> twin
  | None ->
    Int_table.add seen !h x;
    None
