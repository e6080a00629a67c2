module Factor = Sun_util.Factor

type dim = Sun_tensor.Workload.dim

type assignment = (dim * int) list

let factor_of assignment d = match List.assoc_opt d assignment with Some f -> f | None -> 1

let assignment ~grow_dims factors = List.mapi (fun i d -> (d, factors.(i))) grow_dims

type outcome = { frontier : int array list; explored : int }

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

(* Ladders by (max_steps, extent). *)
type table = { ladders : (int * int, int array) Hashtbl.t; mutable built : int }

let table () = { ladders = Hashtbl.create 16; built = 0 }

let built t = t.built

let rungs t ~max_steps extent =
  let key = (max_steps, extent) in
  match Hashtbl.find_opt t.ladders key with
  | Some rungs -> rungs
  | None ->
    let rungs = Array.of_list (ladder ~max_steps extent) in
    Hashtbl.add t.ladders key rungs;
    t.built <- t.built + 1;
    rungs

(* The number of lattice points over [ladders], one rung of each, or
   [None] when it exceeds [max_int]. *)
let span ladders =
  let rec go i size =
    if i = Array.length ladders then Some size
    else
      let radix = Array.length ladders.(i) in
      if size > max_int / radix then None else go (i + 1) (size * radix)
  in
  go 0 1

(* Mixed-radix strides over [ladders], whose {!span} fits an int. *)
let strides ladders =
  let stride = Array.make (Array.length ladders) 1 in
  for i = 1 to Array.length ladders - 1 do
    stride.(i) <- stride.(i - 1) * Array.length ladders.(i - 1)
  done;
  stride

(* A scope's key space: each grow dim's factor is keyed by its index among
   the divisors of the scope's extent, packed mixed-radix with [stride].
   Built by the first search whose corner test fails. [offsets] holds, per
   grow position, each ladder's offsets ({!ladder_offsets}) found by the
   ladder's identity: the searches of one table share their ladders. *)
type keys =
  | Unbuilt
  | Too_large
  | Built of {
      divisors : int array array;
      stride : int array;
      verdicts : Verdicts.t;
      offsets : (int array * int array) list array;
    }

type scope = { extents : int array; mutable keys : keys }

let scope extents = { extents = Array.copy extents; keys = Unbuilt }

(* The divisors of an extent are its unthinned ladder. *)
let build_keys table extents =
  let divisors = Array.map (rungs table ~max_steps:max_int) extents in
  match span divisors with
  | Some _ ->
    Built
      {
        divisors;
        stride = strides divisors;
        verdicts = Verdicts.create ();
        offsets = Array.map (fun _ -> []) extents;
      }
  | None -> Too_large

(* Each rung's share of a point's key: the index of its factor among the
   key space's [values] for that dim, times the dim's [stride]. Every rung
   is one of the values, which ascend like the rungs. *)
let ladder_offsets values stride ladder =
  let rec index j f = if values.(j) = f then j else index (j + 1) f in
  let j = ref 0 in
  Array.map
    (fun f ->
      j := index !j f;
      !j * stride)
    ladder

(* The rung offsets and verdict table a search keys its points with: its
   scope's, or, without a scope or when the scope's divisor lattice
   overflows an int, a private key space over its own ladders, where a
   rung's index is its position. *)
let key_space table scope ladders =
  let own () =
    let stride = strides ladders in
    ( Array.mapi (fun i ladder -> Array.init (Array.length ladder) (fun r -> r * stride.(i))) ladders,
      Verdicts.create () )
  in
  match scope with
  | None -> own ()
  | Some s -> (
    (match s.keys with Unbuilt -> s.keys <- build_keys table s.extents | Too_large | Built _ -> ());
    match s.keys with
    | Built { divisors; stride; verdicts; offsets } ->
      let offset i ladder =
        match List.assq_opt ladder offsets.(i) with
        | Some o -> o
        | None ->
          let o = ladder_offsets divisors.(i) stride.(i) ladder in
          offsets.(i) <- (ladder, o) :: offsets.(i);
          o
      in
      (Array.mapi offset ladders, verdicts)
    | Unbuilt | Too_large -> own ())

(* The sweep order of [n] grow dims: every dim in grow order, except that
   the one with the longest ladder (on a tie, the later one) goes last,
   where it is the line dim. *)
let sweep_order ladders =
  let n = Array.length ladders in
  let line = ref (n - 1) in
  for i = n - 2 downto 0 do
    if Array.length ladders.(i) > Array.length ladders.(!line) then line := i
  done;
  Array.init n (fun s -> if s < !line then s else if s < n - 1 then s + 1 else !line)

(* Descending lexicographic order of factor vectors. *)
let rec descending (a : int array) (b : int array) i =
  if i >= Array.length a then 0
  else if a.(i) <> b.(i) then Int.compare b.(i) a.(i)
  else descending a b (i + 1)

(* A lattice point is one rung per grow dim, keyed by the sum of its
   rungs' offsets: growing dim [i] from rung [r] adds
   [off.(i).(r + 1) - off.(i).(r)]. The fitting points form a down-set D,
   since [fits] is monotone. Unless the top corner fits (D is then the
   whole lattice), D is swept as a staircase of lines. Sweep position [s]
   is grow dim [pos.(s)] ({!sweep_order}): every prefix of rungs for
   positions 0..n-2 that fits with the line dim at rung 0, in descending
   lexicographic order, and on each the line dim's highest fitting rung.
   The longest ladder makes the fewest lines. A line's end point is on
   the frontier when no earlier position grows from it; the frontier
   comes out in descending lexicographic sweep order and is sorted back
   into grow order. Only points of D and points one rung above D are
   tested. [verdicts] holds the corner and every point the sweep tests,
   so within one scope only the root and corner tests repeat. The ladders
   are [table]'s; a search whose corner fits reads only their lengths. *)
let search ?(max_steps = max_int) ?scope ~table ~remaining ~fits () =
  check_steps "search" max_steps;
  let n = Array.length remaining in
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
        remaining)
    scope;
  let ladders = Array.map (rungs table ~max_steps) remaining in
  let lattice =
    match span ladders with
    | Some size -> size
    | None -> invalid_arg "Tile_tree.search: lattice too large"
  in
  let factors = Array.make n 1 in
  if not (fits factors) then { frontier = []; explored = 1 }
  else begin
    Array.blit remaining 0 factors 0 n;
    if lattice = 1 || fits factors then { frontier = [ factors ]; explored = lattice }
    else begin
      Array.fill factors 0 n 1;
      let off, verdicts = key_space table scope ladders in
      Verdicts.add verdicts
        (Array.fold_left (fun key o -> key + o.(Array.length o - 1)) 0 off)
        false;
      let pos = sweep_order ladders in
      (* rungs by sweep position *)
      let rung = Array.make n 0 and key = ref 0 in
      let set s r =
        let i = pos.(s) in
        let o = off.(i) in
        key := !key + o.(r) - o.(rung.(s));
        rung.(s) <- r;
        factors.(i) <- ladders.(i).(r)
      in
      (* Does the current point, one rung higher at sweep position [s], fit? *)
      let grows s =
        let i = pos.(s) and r = rung.(s) in
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
      let rec earlier_grows s = s >= 0 && (grows s || earlier_grows (s - 1)) in
      let last = n - 1 in
      let explored = ref 0 and frontier = ref [] in
      (* The lines under the current prefix: positions below [s] are fixed,
         positions above it are at rung 0, and position [s] starts from rung
         [floor], which is known to fit. Returns its highest fitting rung:
         the next lower prefix fits at least that high, so it is that
         line's floor. *)
      let rec sweep s floor =
        set s floor;
        while grows s do
          set s (rung.(s) + 1)
        done;
        let top = rung.(s) in
        if s = last then begin
          explored := !explored + top + 1;
          if not (earlier_grows (last - 1)) then frontier := Array.copy factors :: !frontier
        end
        else begin
          let floor = ref 0 in
          for r = top downto 0 do
            set s r;
            floor := sweep (s + 1) !floor
          done
        end;
        set s 0;
        top
      in
      ignore (sweep 0 0);
      let frontier = List.rev !frontier in
      let frontier =
        if pos.(last) = last then frontier
        else List.sort (fun a b -> descending a b 0) frontier
      in
      { frontier; explored = !explored }
    end
  end
