module W = Sun_tensor.Workload
module A = Sun_arch.Arch

(* Per tensor axis: (dim id, coefficient) terms, exactly [Model]'s op_info
   axes. A [W.Dim d] axis is [(d, 1)]: its extent 1 + 1*(v-1) = v is the
   same exact integer [W.axis_extent] computes, so the product below is
   bit-identical to [W.footprint]. *)
type axes = (int * int) array array

(* A flat float record: [sum_into] stores its result here unboxed. *)
type acc = { mutable words : float }

type t = {
  dim_of : (string, int) Hashtbl.t;
  ops : (string, axes) Hashtbl.t;
  vec : int array;  (** scratch extent vector, see [extents] *)
  ones : int array;
  bump : int array;  (** scratch for [changes_footprint] *)
  acc : acc;  (** [sum_into]'s result *)
}

type part_fit = { part : A.partition; stored : axes array }

type level_fit = { bounded : bool; parts : part_fit array }

type table = level_fit array

let create (w : W.t) =
  let names = W.dim_names w in
  let ndims = List.length names in
  let dim_of = Hashtbl.create 8 in
  List.iteri (fun i d -> Hashtbl.replace dim_of d i) names;
  let ops = Hashtbl.create 8 in
  List.iter
    (fun (op : W.operand) ->
      let axes =
        Array.of_list
          (List.map
             (fun idx ->
               match idx with
               | W.Dim d -> [| (Hashtbl.find dim_of d, 1) |]
               | W.Affine terms ->
                 Array.of_list
                   (List.map (fun (d, c) -> (Hashtbl.find dim_of d, c)) terms))
             op.W.indices)
      in
      Hashtbl.replace ops op.W.name axes)
    w.W.operands;
  {
    dim_of;
    ops;
    vec = Array.make ndims 1;
    ones = Array.make ndims 1;
    bump = Array.make ndims 1;
    acc = { words = 0.0 };
  }

let dim_index t d =
  match Hashtbl.find_opt t.dim_of d with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Probe: unknown dimension %s" d)

let axes t ~op =
  match Hashtbl.find_opt t.ops op with
  | Some axes -> axes
  | None -> invalid_arg (Printf.sprintf "Probe: unknown operand %s" op)

(* Extent of one tensor axis, 1 + sum of c * (v_d - 1) over its terms.
   Toplevel tail recursion with an int accumulator: the self-call compiles
   to a jump with [acc] in a register. *)
let rec axis_extent terms (vec : int array) j acc =
  if j >= Array.length terms then acc
  else
    let d, c = Array.unsafe_get terms j in
    axis_extent terms vec (j + 1) (acc + (c * (Array.unsafe_get vec d - 1)))

(* Bit-identical to [W.footprint (fun d -> vec.(dim_of d)) op]: the axis
   extents are exact small integers, and the float product folds left in
   axis order like [W.footprint] does. *)
let compute axes (vec : int array) =
  let fp = ref 1.0 in
  for i = 0 to Array.length axes - 1 do
    fp := !fp *. float_of_int (axis_extent (Array.unsafe_get axes i) vec 0 1)
  done;
  !fp

let extents t = t.vec

let footprint t axes = compute axes t.vec

(* The one occupancy sum: the footprints of [stored] at [ext], [compute]
   inlined by hand and added left to right in array order, the same
   products and sum as [Listx.sum_by (W.footprint ...)]. A float returned
   from a call is boxed, so the sum leaves through the flat [t.acc]. *)
let sum_into t stored (ext : int array) =
  (* sunstone-lint: allow SA070 non-escaping refs are Simplif-eliminated, no allocation *)
  let sum = ref 0.0 and fp = ref 1.0 in
  for oi = 0 to Array.length stored - 1 do
    let op = Array.unsafe_get stored oi in
    fp := 1.0;
    for i = 0 to Array.length op - 1 do
      fp := !fp *. float_of_int (axis_extent (Array.unsafe_get op i) ext 0 1)
    done;
    sum := !sum +. !fp
  done;
  t.acc.words <- !sum

let occupancy t pf ext =
  sum_into t pf.stored ext;
  t.acc.words

(* The one over-capacity test. *)
let overflows t pf ext =
  sum_into t pf.stored ext;
  t.acc.words > float_of_int pf.part.A.capacity_words +. 1e-9

let first_overflow t (table : table) ~level ext =
  let row = table.(level) in
  if not row.bounded then -1
  else begin
    let parts = row.parts in
    (* sunstone-lint: allow SA070 non-escaping ref is Simplif-eliminated, no allocation *)
    let i = ref 0 in
    while !i < Array.length parts && not (overflows t (Array.unsafe_get parts !i) ext) do
      incr i
    done;
    if !i < Array.length parts then !i else -1
  end

let level_fits t table ~level ext = first_overflow t table ~level ext < 0

let fill t (table : table) ~level ext =
  Array.fold_left
    (fun worst pf ->
      let capacity = pf.part.A.capacity_words in
      if capacity > 0 then Float.max worst (occupancy t pf ext /. float_of_int capacity) else worst)
    0.0 table.(level).parts

(* The one membership rule: an operand is stored in the first partition of
   the level that accepts its role under [binding]. *)
let stored_by_partition (w : W.t) (lvl : A.level) ~binding =
  List.map
    (fun (p : A.partition) ->
      ( p,
        List.filter
          (fun (op : W.operand) ->
            match A.partition_for lvl ~role:(binding op.W.name) with
            | Some p' -> p'.A.part_name = p.A.part_name
            | None -> false)
          w.W.operands ))
    lvl.A.partitions

let fit_table t (w : W.t) arch ~binding =
  Array.of_list
    (List.map
       (fun (lvl : A.level) ->
         let part_fit (p, ops) =
           let resolve (op : W.operand) = axes t ~op:op.W.name in
           { part = p; stored = Array.of_list (List.map resolve ops) }
         in
         {
           bounded = not lvl.A.unbounded;
           parts = Array.of_list (List.map part_fit (stored_by_partition w lvl ~binding));
         })
       arch.A.levels)

let changes_footprint t ~op ~dim =
  match Hashtbl.find_opt t.dim_of dim with
  | None -> false
  | Some di ->
    let axes = axes t ~op in
    let base = compute axes t.ones in
    t.bump.(di) <- 2;
    let bumped = compute axes t.bump in
    t.bump.(di) <- 1;
    bumped <> base
