module Factor = Sun_util.Factor

type dim = Sun_tensor.Workload.dim

type assignment = (dim * int) list

let factor_of assignment d = match List.assoc_opt d assignment with Some f -> f | None -> 1

let assignment ~grow_dims factors = List.mapi (fun i d -> (d, factors.(i))) grow_dims

type outcome = { frontier : assignment list; explored : int }

(* Thin a sorted divisor list to [max_steps] geometrically spaced rungs,
   keeping the first and last. *)
let thin max_steps divisors =
  let n = List.length divisors in
  if n <= max_steps then divisors
  else begin
    let arr = Array.of_list divisors in
    let picked =
      List.init max_steps (fun i -> arr.(i * (n - 1) / (max_steps - 1)))
    in
    Sun_util.Listx.unique compare picked
  end

(* Packed lattice keys are sums of strides, so their low bits are far from
   uniform; a multiply-xorshift spreads them over the table's buckets
   without the generic [Hashtbl.hash] C call. *)
module Points = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash key =
    let h = key * 0x2545F4914F6CDD1D in
    h lxor (h lsr 29)
end)

(* A lattice point is one rung per grow dim, packed mixed-radix into an
   int: growing dim [i] by one rung adds [stride.(i)] to the key. [points]
   holds every point whose fit has been tested, [true] if it fits. A
   fitting point is marked when tested, before it is visited: a parent N
   tests all its children, then recurses into the fitting new ones in dim
   order, and nothing below an earlier child N + e_i can reach a later one
   N + e_j (every node there has a higher rung in dim i). So the later
   child is still unvisited when its turn comes, exactly as in a walk that
   marks points on entry, and the frontier order is that walk's. *)
let search ?(max_steps = max_int) ~grow_dims ~remaining ~fits () =
  if max_steps < 2 then
    invalid_arg (Printf.sprintf "Tile_tree.search: max_steps %d < 2" max_steps);
  let dims = Array.of_list grow_dims in
  let n = Array.length dims in
  (* the children still to recurse into are a bitmask over grow dims *)
  if n >= Sys.int_size then invalid_arg "Tile_tree.search: too many grow dims";
  let ladders =
    Array.map (fun d -> Array.of_list (thin max_steps (Factor.divisors (remaining d)))) dims
  in
  let stride = Array.make n 1 and lattice = ref 1 in
  Array.iteri
    (fun i ladder ->
      let radix = Array.length ladder in
      if !lattice > max_int / radix then invalid_arg "Tile_tree.search: lattice too large";
      stride.(i) <- !lattice;
      lattice := !lattice * radix)
    ladders;
  let rung = Array.make n 0 in
  let factors = Array.make n 1 in
  let points = Points.create 64 in
  let explored = ref 0 in
  let frontier = ref [] in
  let rec visit key =
    incr explored;
    let grown = ref 0 and any_fits = ref false in
    for i = 0 to n - 1 do
      let r = rung.(i) in
      if r + 1 < Array.length ladders.(i) then begin
        let child = key + stride.(i) in
        match Points.find points child with
        | fit -> if fit then any_fits := true
        | exception Not_found ->
          factors.(i) <- ladders.(i).(r + 1);
          let fit = fits factors in
          factors.(i) <- ladders.(i).(r);
          Points.add points child fit;
          if fit then begin
            any_fits := true;
            grown := !grown lor (1 lsl i)
          end
      end
    done;
    if not !any_fits then frontier := assignment ~grow_dims factors :: !frontier
    else
      for i = 0 to n - 1 do
        if !grown land (1 lsl i) <> 0 then begin
          let r = rung.(i) in
          rung.(i) <- r + 1;
          factors.(i) <- ladders.(i).(r + 1);
          visit (key + stride.(i));
          rung.(i) <- r;
          factors.(i) <- ladders.(i).(r)
        end
      done
  in
  if fits factors then begin
    Points.add points 0 true;
    visit 0
  end
  else incr explored;
  { frontier = List.rev !frontier; explored = !explored }
