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
   int: growing dim [i] by one rung adds [stride.(i)] to the key. The
   fitting points form a down-set D, since [fits] is monotone. Unless the
   top corner fits (D is then the whole lattice), D is swept as a
   staircase of lines: every prefix of rungs for dims 0..n-2 that fits
   with the last dim at rung 0, in descending lexicographic order, and on
   each the last dim's highest fitting rung. A line's end point is on the
   frontier when no earlier dim grows from it, so the frontier comes out
   in descending lexicographic order too. Only points of D and points one
   rung above D are tested, and [verdicts] holds every tested point, so
   no point is tested twice. *)
let search ?(max_steps = max_int) ~grow_dims ~remaining ~fits () =
  check_steps "search" max_steps;
  let ladders =
    Array.of_list (List.map (fun d -> Array.of_list (ladder ~max_steps (remaining d))) grow_dims)
  in
  let n = Array.length ladders in
  let stride = Array.make n 1 and lattice = ref 1 in
  Array.iteri
    (fun i ladder ->
      let radix = Array.length ladder in
      if !lattice > max_int / radix then invalid_arg "Tile_tree.search: lattice too large";
      stride.(i) <- !lattice;
      lattice := !lattice * radix)
    ladders;
  let factors = Array.make n 1 in
  if not (fits factors) then { frontier = []; explored = 1 }
  else begin
    Array.iteri (fun i ladder -> factors.(i) <- ladder.(Array.length ladder - 1)) ladders;
    if !lattice = 1 || fits factors then
      { frontier = [ assignment ~grow_dims factors ]; explored = !lattice }
    else begin
      Array.fill factors 0 n 1;
      let verdicts = Points.create 64 in
      Points.add verdicts (!lattice - 1) false;
      let rung = Array.make n 0 and key = ref 0 in
      let set i r =
        key := !key + ((r - rung.(i)) * stride.(i));
        rung.(i) <- r;
        factors.(i) <- ladders.(i).(r)
      in
      (* Does the current point, one rung higher in dim [i], fit? *)
      let grows i =
        let r = rung.(i) in
        r + 1 < Array.length ladders.(i)
        &&
        let point = !key + stride.(i) in
        match Points.find verdicts point with
        | fit -> fit
        | exception Not_found ->
          factors.(i) <- ladders.(i).(r + 1);
          let fit = fits factors in
          factors.(i) <- ladders.(i).(r);
          Points.add verdicts point fit;
          fit
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
