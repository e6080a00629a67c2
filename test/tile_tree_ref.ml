(* Reference tiling-tree search: the assoc-list walk [Sun_core.Tile_tree]
   replaced. It names every dimension on every step and re-tests a child's
   fit from each parent that reaches it, which is what the rung-index search
   avoids. Kept as the oracle the QCheck property in test_sunstone pins the
   frontier, its order and [explored] to. *)

module Factor = Sun_util.Factor

type assignment = (string * int) list

let factor_of assignment d = match List.assoc_opt d assignment with Some f -> f | None -> 1

let canonical grow_dims assignment = List.map (fun d -> (d, factor_of assignment d)) grow_dims

let thin max_steps divisors =
  let n = List.length divisors in
  if n <= max_steps then divisors
  else begin
    let arr = Array.of_list divisors in
    let picked = List.init max_steps (fun i -> arr.(i * (n - 1) / (max_steps - 1))) in
    Sun_util.Listx.unique compare picked
  end

let search ?(max_steps = max_int) ~grow_dims ~remaining ~fits () =
  let ladder =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun d -> Hashtbl.replace tbl d (thin max_steps (Factor.divisors (remaining d))))
      grow_dims;
    fun d -> Hashtbl.find tbl d
  in
  let next_step d current =
    let rec go = function
      | [] -> None
      | x :: _ when x > current -> Some x
      | _ :: rest -> go rest
    in
    go (ladder d)
  in
  let explored = ref 0 in
  let seen = Hashtbl.create 64 in
  let frontier = ref [] in
  let rec visit assignment =
    let key = canonical grow_dims assignment in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      incr explored;
      let grown =
        List.filter_map
          (fun d ->
            match next_step d (factor_of assignment d) with
            | Some f' ->
              let child = (d, f') :: List.remove_assoc d assignment in
              if fits child then Some child else None
            | None -> None)
          grow_dims
      in
      if grown = [] then frontier := key :: !frontier else List.iter visit grown
    end
  in
  let root = canonical grow_dims [] in
  if fits root then visit root else incr explored;
  (List.rev !frontier, !explored)
