module Factor = Sun_util.Factor

type dim = Sun_tensor.Workload.dim

type assignment = (dim * int) list

let factor_of assignment d = match List.assoc_opt d assignment with Some f -> f | None -> 1

let assignment ~grow_dims factors = List.mapi (fun i d -> (d, factors.(i))) grow_dims

type outcome = { frontier : assignment list; explored : int }

let check_steps fn max_steps =
  if max_steps < 2 then invalid_arg (Printf.sprintf "Tile_tree.%s: max_steps %d < 2" fn max_steps)

let ladder ?(max_steps = max_int) extent =
  check_steps "ladder" max_steps;
  let divisors = Factor.divisors extent in
  let n = List.length divisors in
  if n <= max_steps then divisors
  else begin
    let arr = Array.of_list divisors in
    let picked =
      List.init max_steps (fun i -> arr.(i * (n - 1) / (max_steps - 1)))
    in
    Sun_util.Listx.unique compare picked
  end

(* Mixed-radix strides over [radices] and the number of points they span,
   or [None] when that number exceeds [max_int]. *)
let strides radices =
  let n = Array.length radices in
  let stride = Array.make n 1 in
  let rec go i size =
    if i = n then Some (stride, size)
    else if size > max_int / radices.(i) then None
    else begin
      stride.(i) <- size;
      go (i + 1) (size * radices.(i))
    end
  in
  go 0 1

(* A scope's key space: each grow dim's factor is keyed by its index among
   the divisors of the scope's extent, packed mixed-radix with [stride].
   Built by the first search whose corner test fails. *)
type keys =
  | Unbuilt
  | Too_large
  | Built of { divisors : int array array; stride : int array; verdicts : Verdicts.t }

type scope = { extents : int array; mutable keys : keys }

let scope extents = { extents = Array.copy extents; keys = Unbuilt }

let build_keys extents =
  let divisors = Array.map (fun e -> Array.of_list (Factor.divisors e)) extents in
  match strides (Array.map Array.length divisors) with
  | Some (stride, _) -> Built { divisors; stride; verdicts = Verdicts.create () }
  | None -> Too_large

(* Each rung's share of a point's key: the index of its factor among the
   key space's [values] for that dim, times the dim's stride. Every rung
   is one of the values, which ascend like the rungs. *)
let offsets values stride ladders =
  Array.mapi
    (fun i ladder ->
      let v = values.(i) in
      let rec index j f = if v.(j) = f then j else index (j + 1) f in
      let j = ref 0 in
      Array.map
        (fun f ->
          j := index !j f;
          !j * stride.(i))
        ladder)
    ladders

(* The key space and verdict table a search keys its points in: its
   scope's, or, without a scope or when the scope's divisor lattice
   overflows an int, a private one over its own ladders. *)
let key_space scope ~ladders ~stride =
  let own () = (ladders, stride, Verdicts.create ()) in
  match scope with
  | None -> own ()
  | Some s -> (
    (match s.keys with Unbuilt -> s.keys <- build_keys s.extents | Too_large | Built _ -> ());
    match s.keys with
    | Built { divisors; stride; verdicts } -> (divisors, stride, verdicts)
    | Unbuilt | Too_large -> own ())

(* A lattice point is one rung per grow dim, keyed by the sum of its
   rungs' offsets: growing dim [i] from rung [r] adds
   [off.(i).(r + 1) - off.(i).(r)]. The fitting points form a down-set D,
   since [fits] is monotone. Unless the top corner fits (D is then the
   whole lattice), D is swept as a staircase of lines: every prefix of
   rungs for dims 0..n-2 that fits with the last dim at rung 0, in
   descending lexicographic order, and on each the last dim's highest
   fitting rung. A line's end point is on the frontier when no earlier
   dim grows from it, so the frontier comes out in descending
   lexicographic order too. Only points of D and points one rung above D
   are tested. [verdicts] holds the corner and every point the sweep
   tests, so within one scope only the root and corner tests repeat. *)
let search ?(max_steps = max_int) ?scope ~grow_dims ~remaining ~fits () =
  check_steps "search" max_steps;
  let tops = Array.of_list (List.map remaining grow_dims) in
  let n = Array.length tops in
  Option.iter
    (fun s ->
      if Array.length s.extents <> n then
        invalid_arg
          (Printf.sprintf "Tile_tree.search: scope has %d extents for %d grow dims"
             (Array.length s.extents) n);
      Array.iteri
        (fun i top ->
          if s.extents.(i) mod top <> 0 then
            invalid_arg
              (Printf.sprintf "Tile_tree.search: remaining %d does not divide the scope's %d" top
                 s.extents.(i)))
        tops)
    scope;
  let ladders = Array.map (fun top -> Array.of_list (ladder ~max_steps top)) tops in
  let stride, lattice =
    match strides (Array.map Array.length ladders) with
    | Some space -> space
    | None -> invalid_arg "Tile_tree.search: lattice too large"
  in
  let factors = Array.make n 1 in
  if not (fits factors) then { frontier = []; explored = 1 }
  else begin
    Array.blit tops 0 factors 0 n;
    if lattice = 1 || fits factors then
      { frontier = [ assignment ~grow_dims factors ]; explored = lattice }
    else begin
      Array.fill factors 0 n 1;
      let values, stride, verdicts = key_space scope ~ladders ~stride in
      let off = offsets values stride ladders in
      Verdicts.add verdicts
        (Array.fold_left (fun key o -> key + o.(Array.length o - 1)) 0 off)
        false;
      let rung = Array.make n 0 and key = ref 0 in
      let set i r =
        let o = off.(i) in
        key := !key + o.(r) - o.(rung.(i));
        rung.(i) <- r;
        factors.(i) <- ladders.(i).(r)
      in
      (* Does the current point, one rung higher in dim [i], fit? *)
      let grows i =
        let r = rung.(i) in
        r + 1 < Array.length ladders.(i)
        &&
        let o = off.(i) in
        let point = !key - o.(r) + o.(r + 1) in
        match Verdicts.find verdicts point with
        | -1 ->
          factors.(i) <- ladders.(i).(r + 1);
          let fit = fits factors in
          factors.(i) <- ladders.(i).(r);
          Verdicts.add verdicts point fit;
          fit
        | verdict -> verdict = 1
      in
      let rec earlier_grows i = i >= 0 && (grows i || earlier_grows (i - 1)) in
      let last = n - 1 in
      let explored = ref 0 and frontier = ref [] in
      (* The lines under the current prefix: dims below [i] are fixed, dims
         above it are at rung 0, and dim [i] starts from rung [floor], which
         is known to fit. Returns dim [i]'s highest fitting rung: the next
         lower prefix fits at least that high, so it is that line's floor. *)
      let rec sweep i floor =
        set i floor;
        while grows i do
          set i (rung.(i) + 1)
        done;
        let top = rung.(i) in
        if i = last then begin
          explored := !explored + top + 1;
          if not (earlier_grows (last - 1)) then
            frontier := assignment ~grow_dims factors :: !frontier
        end
        else begin
          let floor = ref 0 in
          for r = top downto 0 do
            set i r;
            floor := sweep (i + 1) !floor
          done
        end;
        set i 0;
        top
      in
      ignore (sweep 0 0);
      { frontier = List.rev !frontier; explored = !explored }
    end
  end
