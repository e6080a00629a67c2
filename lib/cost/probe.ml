module W = Sun_tensor.Workload
module A = Sun_arch.Arch

(* Per tensor axis: (dim id, coefficient) terms, exactly [Model]'s op_info
   axes. A [W.Dim d] axis is [(d, 1)]: its extent 1 + 1*(v-1) = v is the
   same exact integer [W.axis_extent] computes, so the product below is
   bit-identical to [W.footprint]. *)
type axes = (int * int) array array

type t = {
  dim_of : (string, int) Hashtbl.t;
  ops : (string, axes) Hashtbl.t;
  vec : int array;  (** scratch extent vector, see [extents] *)
  ones : int array;
  bump : int array;  (** scratch for [changes_footprint] *)
}

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

(* [compute] inlined by hand: a float returned from a call is boxed, so
   the footprints are folded into the sum inside this one function and
   only the int verdict leaves it. Same products, same left-to-right sum
   as [Listx.sum_by (W.footprint ...)]. *)
let fits t ops ~capacity =
  (* sunstone-lint: allow SA070 non-escaping refs are Simplif-eliminated, no allocation *)
  let sum = ref 0.0 and fp = ref 1.0 in
  for oi = 0 to Array.length ops - 1 do
    let op = Array.unsafe_get ops oi in
    fp := 1.0;
    for i = 0 to Array.length op - 1 do
      fp := !fp *. float_of_int (axis_extent (Array.unsafe_get op i) t.vec 0 1)
    done;
    sum := !sum +. !fp
  done;
  not (!sum > capacity +. 1e-9)

let fit_table t (w : W.t) arch ~binding =
  Array.init (A.num_levels arch) (fun level ->
      let lvl = A.level arch level in
      if lvl.A.unbounded then [||]
      else
        Array.of_list
          (List.map
             (fun (p : A.partition) ->
               let stored (op : W.operand) =
                 match A.partition_for lvl ~role:(binding op.W.name) with
                 | Some p' when p'.A.part_name = p.A.part_name -> Some (axes t ~op:op.W.name)
                 | _ -> None
               in
               let ops = Array.of_list (List.filter_map stored w.W.operands) in
               (float_of_int p.A.capacity_words, ops))
             lvl.A.partitions))

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
