module W = Sun_tensor.Workload

(* Per tensor axis: (dim id, coefficient) terms, exactly [Model]'s op_info
   axes. A [W.Dim d] axis is [(d, 1)]: its extent 1 + 1*(v-1) = v is the
   same exact integer [W.axis_extent] computes, so the product below is
   bit-identical to [W.footprint]. *)
type op_axes = (int * int) array array

type t = {
  dims : string array;
  ndims : int;
  dim_of : (string, int) Hashtbl.t;
  ops : (string, op_axes) Hashtbl.t;
  vec : int array;  (** scratch filled by [set_extents] *)
  ones : int array;
  bump : int array;  (** scratch for [changes_footprint] *)
}

let create (w : W.t) =
  let dims = Array.of_list (W.dim_names w) in
  let ndims = Array.length dims in
  let dim_of = Hashtbl.create 8 in
  Array.iteri (fun i d -> Hashtbl.replace dim_of d i) dims;
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
    dims;
    ndims;
    dim_of;
    ops;
    vec = Array.make ndims 1;
    ones = Array.make ndims 1;
    bump = Array.make ndims 1;
  }

let axes_of t op =
  match Hashtbl.find t.ops op with
  | axes -> axes
  | exception Not_found ->
    (* sunstone-lint: allow SA070 unknown-operand failure is a caller bug, not a hot path *)
    invalid_arg (Printf.sprintf "Probe: unknown operand %s" op)

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
  (* sunstone-lint: allow SA070 non-escaping ref is Simplif-eliminated, no allocation *)
  let fp = ref 1.0 in
  for i = 0 to Array.length axes - 1 do
    fp := !fp *. float_of_int (axis_extent (Array.unsafe_get axes i) vec 0 1)
  done;
  !fp

let set_extents t extent =
  for i = 0 to t.ndims - 1 do
    t.vec.(i) <- extent t.dims.(i)
  done

let footprint t ~op = compute (axes_of t op) t.vec

let footprint_of t ~op extent =
  set_extents t extent;
  footprint t ~op

let changes_footprint t ~op ~dim =
  match Hashtbl.find_opt t.dim_of dim with
  | None -> false
  | Some di ->
    let axes = axes_of t op in
    let base = compute axes t.ones in
    t.bump.(di) <- 2;
    let bumped = compute axes t.bump in
    t.bump.(di) <- 1;
    bumped <> base
