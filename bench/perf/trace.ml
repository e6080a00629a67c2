(* Spans recorded by the benchmark around its calls into each layer, kept in
   memory and written once when the benchmark ends. *)

module J = Sun_serve.Json

type span = {
  id : int;
  name : string;
  parent : int option;
  start : float;
  stop : float;
  calls : int;  (** how many calls of the layer the span covers *)
  request : string;
  workload : string;
}

let spans : span list ref = ref []
let next_id = ref 0

let add ?parent ?(calls = 1) ~workload ~request ~start ~stop name =
  let id = !next_id in
  incr next_id;
  spans := { id; name; parent; start; stop; calls; request; workload } :: !spans;
  id

(* [record name f] runs [f id], where [id] is the new span's id for its
   children, and records the span even when [f] raises. *)
let record ?parent ?(calls = 1) ~workload ~request name f =
  let id = !next_id in
  incr next_id;
  let start = Sun_util.Stopwatch.monotonic_now () in
  let finish () =
    let stop = Sun_util.Stopwatch.monotonic_now () in
    spans := { id; name; parent; start; stop; calls; request; workload } :: !spans
  in
  match f id with
  | x ->
    finish ();
    x
  | exception e ->
    finish ();
    raise e

let duration s = s.stop -. s.start

let named ~workload name =
  List.filter (fun s -> s.workload = workload && s.name = name) (List.rev !spans)

(* A span's self time: its duration minus the part of it that child spans
   cover. *)
let self_time children s =
  let intervals =
    List.sort compare
      (List.filter_map
         (fun c ->
           let a = Float.max c.start s.start and b = Float.min c.stop s.stop in
           if b > a then Some (a, b) else None)
         children)
  in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = Float.max a reach in
        if b > a then (acc +. (b -. a), b) else (acc, reach))
      (0.0, neg_infinity) intervals
  in
  duration s -. covered

let to_json ~workload =
  let mine = List.filter (fun s -> s.workload = workload) (List.rev !spans) in
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> match s.parent with Some p -> Hashtbl.add children p s | None -> ())
    mine;
  J.List
    (List.map
       (fun s ->
         J.Obj
           [
             ("id", J.Int s.id);
             ("name", J.String s.name);
             ("parent", match s.parent with Some p -> J.Int p | None -> J.Null);
             ("request", J.String s.request);
             ("start_s", J.Float s.start);
             ("end_s", J.Float s.stop);
             ("calls", J.Int s.calls);
             ("self_s", J.Float (self_time (Hashtbl.find_all children s.id) s));
           ])
       mine)
