module W = Sun_tensor.Workload
module Model = Sun_cost.Model
module Mapspace = Sun_search.Mapspace
module Rng = Sun_util.Rng

type config = {
  timeout : int;
  victory_condition : int;
  seed : int;
  threads : int;
}

let fast =
  { timeout = 20_000; victory_condition = 25; seed = 0x71; threads = 8 }

let slow =
  { timeout = 80_000; victory_condition = 1_500; seed = 0x71; threads = 8 }

(* One hunt thread of Timeloop's search pool. Each thread keeps its own
   termination counters but shares the incumbent, like the original. *)
let hunt ~config ~ctx ~space ~rng best best_edp examined =
  let since_improvement = ref 0 in
  let valid_since_improvement = ref 0 in
  let stop = ref false in
  while not !stop do
    let m = Mapspace.sample space rng in
    incr examined;
    (match Model.evaluate_ctx ctx m with
    | Ok cost ->
      if cost.Model.edp < !best_edp then begin
        best_edp := cost.Model.edp;
        best := Some m;
        since_improvement := 0;
        valid_since_improvement := 0
      end
      else begin
        incr since_improvement;
        incr valid_since_improvement
      end
    | Error _ -> incr since_improvement);
    if
      !since_improvement >= config.timeout || !valid_since_improvement >= config.victory_condition
    then stop := true
  done

let run ?(config = fast) ?binding w arch =
  let timer = Sun_util.Stopwatch.start () in
  let ctx = Model.context ?binding w arch in
  let space = Mapspace.create w arch in
  let best = ref None in
  let best_edp = ref Float.infinity in
  let examined = ref 0 in
  for thread = 0 to config.threads - 1 do
    let rng = Rng.create (config.seed + (thread * 7919)) in
    hunt ~config ~ctx ~space ~rng best best_edp examined
  done;
  Mapper.of_mapping ~tool:"timeloop-like" ~examined:!examined
    ~wall_seconds:(Sun_util.Stopwatch.elapsed_s timer) ?binding w arch !best
