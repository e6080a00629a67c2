module W = Sun_tensor.Workload

type dim = W.dim

type level_mapping = { temporal : (dim * int) list; order : dim list; spatial : (dim * int) list }

type t = { levels : level_mapping array }

let num_levels t = Array.length t.levels

let factor assoc d = match List.assoc_opt d assoc with Some f -> f | None -> 1

let temporal_factor t ~level d = factor t.levels.(level).temporal d
let spatial_factor t ~level d = factor t.levels.(level).spatial d

let tile_at t ~level d =
  let acc = ref 1 in
  for j = 0 to level do
    acc := !acc * temporal_factor t ~level:j d * spatial_factor t ~level:j d
  done;
  !acc

let spatial_product t ~level =
  List.fold_left (fun acc (_, f) -> acc * f) 1 t.levels.(level).spatial

let total_spatial t =
  let acc = ref 1 in
  for j = 0 to num_levels t - 1 do
    acc := !acc * spatial_product t ~level:j
  done;
  !acc

let footprint_at (_ : W.t) t ~level op = W.footprint (fun d -> tile_at t ~level d) op

let ( let* ) = Result.bind

let dim_position dims pos d =
  let n = Array.length dims in
  if pos < n && (dims.(pos) == d || String.equal dims.(pos) d) then pos
  else begin
    let j = ref 0 in
    while !j < n && not (String.equal dims.(!j) d) do
      incr j
    done;
    if !j < n then !j else -1
  end

(* Multiply each entry's factor into [placed] at its dim's position;
   entries naming no workload dim are skipped. *)
let multiply_into dims placed assoc =
  List.iteri
    (fun pos (d, f) ->
      let j = dim_position dims pos d in
      if j >= 0 then placed.(j) <- placed.(j) * f)
    assoc

let complete_at_top w levels =
  let top = Array.length levels - 1 in
  if top < 0 then levels
  else begin
    let dims = Array.of_list (W.dim_names w) in
    let placed = Array.make (Array.length dims) 1 in
    Array.iter
      (fun lm ->
        multiply_into dims placed lm.temporal;
        multiply_into dims placed lm.spatial)
      levels;
    let top_temporal = Array.make (Array.length dims) 1 in
    multiply_into dims top_temporal levels.(top).temporal;
    let completed = Array.copy levels in
    completed.(top) <-
      {
        (levels.(top)) with
        temporal =
          List.mapi (fun j (d, bound) -> (d, top_temporal.(j) * (bound / placed.(j)))) w.W.dims;
      };
    completed
  end

(* One pass over each level's lists, resolving every entry's dim to its
   workload position: [seen] counts the entries per dim and [placed]
   accumulates each dim's factor product. The checks run in a fixed order
   — per level: known dims and positive factors (temporal, then spatial, in
   list order), coverage (temporal, spatial), order; then the per-dim
   products in workload order — so the first violated rule is the Error
   payload and no exception escapes library code. *)
let make w levels =
  let dims = Array.of_list (W.dim_names w) in
  let n = Array.length dims in
  let placed = Array.make n 1 in
  let seen_temporal = Array.make n 0 and seen_spatial = Array.make n 0 in
  let rec factors i kind seen pos = function
    | [] -> Ok ()
    | (d, f) :: rest ->
      let j = dim_position dims pos d in
      if j < 0 then Error (Printf.sprintf "level %d: unknown dim %s in %s factors" i d kind)
      else if f < 1 then Error (Printf.sprintf "level %d: %s factor of %s is %d" i kind d f)
      else begin
        seen.(j) <- seen.(j) + 1;
        placed.(j) <- placed.(j) * f;
        factors i kind seen (pos + 1) rest
      end
  in
  (* the mli contract: factor lists cover exactly the workload dims, once
     each — a silently missing dim would default to factor 1 downstream *)
  let covers i kind seen =
    if Array.for_all (fun c -> c = 1) seen then Ok ()
    else
      Error
        (Printf.sprintf "level %d: %s factors must cover each workload dim exactly once" i kind)
  in
  (* [seen] doubles as the order's visited marks *)
  let rec permutes seen pos = function
    | [] -> Array.for_all (fun c -> c = 1) seen
    | d :: rest ->
      let j = dim_position dims pos d in
      j >= 0
      && seen.(j) = 0
      &&
      (seen.(j) <- 1;
       permutes seen (pos + 1) rest)
  in
  let rec check_levels i = function
    | [] -> Ok ()
    | lm :: rest ->
      Array.fill seen_temporal 0 n 0;
      Array.fill seen_spatial 0 n 0;
      let* () = factors i "temporal" seen_temporal 0 lm.temporal in
      let* () = factors i "spatial" seen_spatial 0 lm.spatial in
      let* () = covers i "temporal" seen_temporal in
      let* () = covers i "spatial" seen_spatial in
      Array.fill seen_temporal 0 n 0;
      if not (permutes seen_temporal 0 lm.order) then
        Error (Printf.sprintf "level %d: order is not a permutation of the workload dims" i)
      else check_levels (i + 1) rest
  in
  let rec check_products j = function
    | [] -> Ok ()
    | (d, bound) :: rest ->
      if placed.(j) <> bound then
        Error (Printf.sprintf "dim %s: factors multiply to %d, bound is %d" d placed.(j) bound)
      else check_products (j + 1) rest
  in
  let* () = check_levels 0 levels in
  let* () = check_products 0 w.W.dims in
  Ok { levels = Array.of_list levels }


module Rows = struct
  type t = { temporal : int array array; spatial : int array array; order : int array array }

  (* Toplevel loops with int accumulators: the per-candidate check
     allocates nothing. *)
  let rec positive row j n = j >= n || (Array.unsafe_get row j >= 1 && positive row (j + 1) n)

  let rec distinct_before (row : int array) i j =
    j >= i || (row.(j) <> row.(i) && distinct_before row i (j + 1))

  let rec permutation row i n =
    i >= n
    ||
    let p = row.(i) in
    p >= 0 && p < n && distinct_before row i 0 && permutation row (i + 1) n

  let rec levels_ok r l n =
    l < 0
    ||
    let t = r.temporal.(l) and s = r.spatial.(l) and o = r.order.(l) in
    Array.length t = n
    && Array.length s = n
    && Array.length o = n
    && positive t 0 n && positive s 0 n && permutation o 0 n
    && levels_ok r (l - 1) n

  let rec product r l j acc =
    if l < 0 then acc else product r (l - 1) j (acc * r.temporal.(l).(j) * r.spatial.(l).(j))

  let rec products_ok r bounds j =
    j >= Array.length bounds
    || (product r (Array.length r.temporal - 1) j 1 = bounds.(j) && products_ok r bounds (j + 1))

  let valid ~bounds r =
    let nl = Array.length r.temporal in
    Array.length r.spatial = nl
    && Array.length r.order = nl
    && levels_ok r (nl - 1) (Array.length bounds)
    && products_ok r bounds 0

  let of_levels w levels =
    let dims = Array.of_list (W.dim_names w) in
    let row assoc =
      let r = Array.make (Array.length dims) 1 in
      multiply_into dims r assoc;
      r
    in
    let order o = Array.of_list (List.mapi (dim_position dims) o) in
    {
      temporal = Array.map (fun (lm : level_mapping) -> row lm.temporal) levels;
      spatial = Array.map (fun (lm : level_mapping) -> row lm.spatial) levels;
      order = Array.map (fun (lm : level_mapping) -> order lm.order) levels;
    }

  let to_levels w r =
    let dims = Array.of_list (W.dim_names w) in
    let factors row = List.mapi (fun j d -> (d, row.(j))) (Array.to_list dims) in
    List.init (Array.length r.temporal) (fun l : level_mapping ->
        {
          temporal = factors r.temporal.(l);
          order = List.map (fun p -> dims.(p)) (Array.to_list r.order.(l));
          spatial = factors r.spatial.(l);
        })
end

let make_exn w levels =
  match make w levels with Ok t -> t | Error msg -> invalid_arg ("Mapping.make_exn: " ^ msg)

let single_level w ~num_levels =
  let dims = W.dim_names w in
  let ones = List.map (fun d -> (d, 1)) dims in
  let inner = { temporal = ones; order = dims; spatial = ones } in
  let top = { temporal = List.map (fun (d, b) -> (d, b)) w.W.dims; order = dims; spatial = ones } in
  make_exn w (List.init num_levels (fun i -> if i = num_levels - 1 then top else inner))

let loops_outermost_first t =
  let acc = ref [] in
  for level = num_levels t - 1 downto 0 do
    let lm = t.levels.(level) in
    List.iter
      (fun d ->
        let b = factor lm.temporal d in
        if b > 1 then acc := (level, d, b) :: !acc)
      lm.order
  done;
  List.rev !acc

let pp ppf t =
  let pp_level ppf (i, lm) =
    let temporal_loops =
      List.filter_map
        (fun d ->
          let b = factor lm.temporal d in
          if b > 1 then Some (Printf.sprintf "for %s in %d" d b) else None)
        lm.order
    in
    let spatial_loops =
      List.filter_map (fun (d, f) -> if f > 1 then Some (Printf.sprintf "%s:%d" d f) else None) lm.spatial
    in
    let t_str = if temporal_loops = [] then "-" else String.concat ", " temporal_loops in
    let s_str = if spatial_loops = [] then "" else " | spatial " ^ String.concat " * " spatial_loops in
    Format.fprintf ppf "L%d: %s%s" i t_str s_str
  in
  let indexed = List.rev (Array.to_list (Array.mapi (fun i lm -> (i, lm)) t.levels)) in
  Format.fprintf ppf "@[<v>%a@]" (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_level) indexed

let to_string t = Format.asprintf "%a" pp t
