type dim = string

type index = Dim of dim | Affine of (dim * int) list

type operand = { name : string; kind : [ `Input | `Output ]; indices : index list }

type t = { name : string; dims : (dim * int) list; operands : operand list }

let index_dims = function
  | Dim d -> [ d ]
  | Affine terms -> List.map fst terms

let indexing_dims op =
  Sun_util.Listx.unique String.compare (List.concat_map index_dims op.indices)

let sliding_dims op =
  let compound = function Dim _ -> [] | Affine terms -> List.map fst terms in
  let dims = List.concat_map (fun i -> match i with Affine (_ :: _ :: _) -> compound i | _ -> []) op.indices in
  Sun_util.Listx.unique String.compare dims

let is_indexing op d = List.mem d (indexing_dims op)

let dim_names t = List.map fst t.dims

let bound t d = List.assoc d t.dims

let non_indexing_dims t op =
  List.filter (fun d -> not (is_indexing op d)) (dim_names t)

let output t =
  match List.filter (fun op -> op.kind = `Output) t.operands with
  | [ op ] -> op
  | _ -> invalid_arg "Workload.output: malformed workload"

let inputs t = List.filter (fun op -> op.kind = `Input) t.operands

let find_operand t name =
  match List.find_opt (fun (op : operand) -> op.name = name) t.operands with
  | Some op -> op
  | None -> raise Not_found

let macs t = List.fold_left (fun acc (_, b) -> acc *. float_of_int b) 1.0 t.dims

let axis_extent tile = function
  | Dim d -> tile d
  | Affine terms ->
    List.fold_left (fun acc (d, coeff) -> acc + (coeff * (tile d - 1))) 1 terms

let footprint tile op =
  List.fold_left (fun acc idx -> acc *. float_of_int (axis_extent tile idx)) 1.0 op.indices

let operand_size t op = footprint (bound t) op

type violation =
  | Nonpositive_bound of { dim : dim; bound : int }
  | Duplicate_dim of dim
  | Unknown_dim of { operand : string; dim : dim }
  | Empty_affine of { operand : string }
  | Nonpositive_coefficient of { operand : string; dim : dim; coeff : int }
  | Output_count of int
  | Unused_dim of dim

let violation_message = function
  | Nonpositive_bound { dim; bound } -> Printf.sprintf "bound of %s is %d" dim bound
  | Duplicate_dim d -> Printf.sprintf "duplicate dim %s" d
  | Unknown_dim { operand; dim } -> Printf.sprintf "operand %s uses unknown dim %s" operand dim
  | Empty_affine _ -> "empty affine index"
  | Nonpositive_coefficient { dim; _ } -> Printf.sprintf "non-positive coefficient on %s" dim
  | Output_count n -> Printf.sprintf "expected 1 output operand, got %d" n
  | Unused_dim d -> Printf.sprintf "dim %s indexes no operand" d

let violations t =
  let found = ref [] in
  let report v = found := v :: !found in
  let known = dim_names t in
  List.iter
    (fun (dim, bound) -> if bound <= 0 then report (Nonpositive_bound { dim; bound }))
    t.dims;
  let dup earlier d =
    if List.mem d earlier then report (Duplicate_dim d);
    d :: earlier
  in
  ignore (List.fold_left dup [] known);
  List.iter
    (fun (op : operand) ->
      List.iter
        (fun idx ->
          List.iter
            (fun dim ->
              if not (List.mem dim known) then report (Unknown_dim { operand = op.name; dim }))
            (index_dims idx);
          match idx with
          | Dim _ -> ()
          | Affine [] -> report (Empty_affine { operand = op.name })
          | Affine terms ->
            List.iter
              (fun (dim, coeff) ->
                if coeff <= 0 then
                  report (Nonpositive_coefficient { operand = op.name; dim; coeff }))
              terms)
        op.indices)
    t.operands;
  let outputs = List.length (List.filter (fun op -> op.kind = `Output) t.operands) in
  if outputs <> 1 then report (Output_count outputs);
  let used = List.concat_map indexing_dims t.operands in
  List.iter (fun d -> if not (List.mem d used) then report (Unused_dim d)) known;
  List.rev !found

let make ~name ~dims ~operands =
  let t = { name; dims; operands } in
  match violations t with
  | [] -> t
  | v :: _ -> invalid_arg ("Workload.make: " ^ violation_message v)

let pp_index ppf = function
  | Dim d -> Format.pp_print_string ppf d
  | Affine terms ->
    let term ppf (d, c) = if c = 1 then Format.pp_print_string ppf d else Format.fprintf ppf "%d%s" c d in
    Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "+") term ppf terms

let pp_operand ppf (op : operand) =
  Format.fprintf ppf "%s[%a]" op.name
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ") pp_index)
    op.indices

let pp ppf t =
  let dim ppf (d, b) = Format.fprintf ppf "%s:%d" d b in
  Format.fprintf ppf "@[<v>%s {%a}@,%a@]" t.name
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ") dim)
    t.dims
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_operand)
    t.operands
