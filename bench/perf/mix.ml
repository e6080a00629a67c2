(* The benchmark's workloads: which requests each one sends, and in what
   order, derived from the seed. The daemon only ever sees the request
   lines built here. *)

module J = Sun_serve.Json
module W = Sun_tensor.Workload

(* One distinct request. [key] names it in reference.json; [wire] is the
   JSON the daemon receives as the request's "workload" (a registry name or
   an inline Codec document). *)
type request = {
  key : string;
  w : W.t;
  arch_name : string;
  a : Sun_arch.Arch.t;
  wire : J.t;
}

type kind =
  | Cold
      (** one daemon without a cache and with one worker, one connection,
          repeated passes over the requests *)
  | Mix of { total : int; clients : request list list }
      (** per repetition a fresh daemon with two workers and an empty disk
          cache; one connection per client, [total] requests in all *)

type t = { name : string; kind : kind; distinct : request list }

let arch_of name =
  match Sun_serve.Registry.find_arch name with Ok a -> a | Error msg -> failwith msg

let registry ?key name arch_name =
  match Sun_serve.Registry.find_workload name with
  | Ok w ->
    let key = Option.value key ~default:(name ^ "@" ^ arch_name) in
    { key; w; arch_name; a = arch_of arch_name; wire = J.String name }
  | Error msg -> failwith msg

let inline ~batch w arch_name =
  {
    key = Printf.sprintf "%s/b%d@%s" w.W.name batch arch_name;
    w;
    arch_name;
    a = arch_of arch_name;
    wire = Sun_serve.Codec.encode_workload w;
  }

(* ResNet-18 then Inception-v3 conv layers, in network order. Batch-1
   layers go by their registry names and larger batches inline, so the mix
   sends both request spellings. *)
let conv_layers ~batch arch_name =
  List.map
    (fun w ->
      if batch = 1 then registry ~key:(Printf.sprintf "%s/b1@%s" w.W.name arch_name) w.W.name arch_name
      else inline ~batch w arch_name)
    (List.map (fun l -> l.Sun_workloads.Resnet18.workload) (Sun_workloads.Resnet18.layers ~batch ())
    @ List.map (fun l -> l.Sun_workloads.Inception.workload) (Sun_workloads.Inception.conv_layers ~batch ()))

(* The registry's tensor kernels. tcl is left out: the recheck rejects its
   mapping (SA031 order-not-subsumed) on both presets, and no request of a
   benchmark workload may fail. *)
let tensor_kernels =
  [ "conv1d"; "conv2d"; "matmul"; "mttkrp"; "sddmm"; "ttmc"; "mmc" ]
  @ List.map (fun i -> i.Sun_workloads.Non_dnn.instance_name) Sun_workloads.Non_dnn.all

let cold name distinct = { name; kind = Cold; distinct }

let mix name ~total clients = { name; kind = Mix { total; clients }; distinct = List.concat clients }

(* Fig 8: the deepest hierarchy, the most scored candidates and the most
   model rejections. *)
let resnet18_simba =
  cold "resnet18-simba"
    (List.map
       (fun l -> inline ~batch:16 l.Sun_workloads.Resnet18.workload "simba")
       (Sun_workloads.Resnet18.layers ~batch:16 ()))

(* Fig 6: candidate generation dominates; few candidates reach the model. *)
let tensor_simba =
  cold "tensor-simba"
    (List.map (fun i -> registry i.Sun_workloads.Non_dnn.instance_name "simba") Sun_workloads.Non_dnn.all)

(* Fig 7: many short searches on a flat machine, where fixed per-request
   costs weigh most. *)
let inception_wu_conventional =
  cold "inception-wu-conventional"
    (List.map
       (fun l -> inline ~batch:16 l.Sun_workloads.Inception.workload "conventional")
       (Sun_workloads.Inception.weight_update_layers ~batch:16 ()))

(* Two compiler clients, one per target accelerator, each mapping its
   networks at several batch sizes and re-requesting layers: cache hits,
   transfer seeding from family mates, and two concurrent workers. The
   clients' shape families are disjoint (a family includes the arch), so
   which cached mapping seeds a search does not depend on how the two
   connections interleave. Simba searches cost more, so its client stops at
   batch 2; the two clients then keep both workers busy about equally. *)
let serve_mix =
  mix "serve-mix" ~total:500
    [
      List.concat_map (fun batch -> conv_layers ~batch "simba") [ 1; 2 ];
      List.concat_map (fun batch -> conv_layers ~batch "conventional") [ 1; 2; 4 ]
      @ List.map (fun n -> registry n "conventional") tensor_kernels;
    ]

let all = [ resnet18_simba; tensor_simba; inception_wu_conventional; serve_mix ]

(* --smoke: the same code paths on inputs small enough for a quick check. *)
let smoke =
  let small = [ "inception/1x7_mid"; "inception/7x1_mid"; "resnet18/conv5_ds" ] in
  let small_b2 =
    List.filter (fun r -> List.mem r.w.W.name small) (conv_layers ~batch:2 "conventional")
  in
  [
    cold "smoke-cold" [ registry "inception/1x7_mid" "conventional"; registry "resnet18/conv5_ds" "conventional" ];
    mix "smoke-mix" ~total:20
      [
        List.map (fun n -> registry n "conventional") small;
        registry "mttkrp" "conventional" :: small_b2;
      ];
  ]

let find name = List.find_opt (fun m -> m.name = name) all

let line ~id r =
  J.to_string
    (J.Obj [ ("v", J.Int 1); ("id", J.String id); ("workload", r.wire); ("arch", J.String r.arch_name) ])

(* One cold pass: every distinct request once, in a seed-dependent order. *)
let pass_order rng m = Sun_util.Rng.shuffle rng m.distinct

(* One client's stream: its requests once each in their fixed order, plus
   [extra] Zipf(s = 1.1) repeats over a seed-shuffled popularity ranking,
   each placed at a seed-chosen point after the request's first occurrence.
   Every repeat is thus a cache hit and the order of searches is fixed;
   the seed decides which requests are popular and when they recur. *)
let client_stream rng reqs ~extra =
  let base = Array.of_list reqs in
  let n = Array.length base in
  let ranked = Array.of_list (Sun_util.Rng.shuffle rng (List.init n Fun.id)) in
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun k _ ->
      acc := !acc +. (1.0 /. (float_of_int (k + 1) ** 1.1));
      cdf.(k) <- !acc)
    ranked;
  let draw () =
    let u = Sun_util.Rng.float rng !acc in
    let rec find k = if k >= n - 1 || u < cdf.(k) then k else find (k + 1) in
    ranked.(find 0)
  in
  let after = Array.make n [] in
  for _ = 1 to extra do
    let i = draw () in
    let pos = i + Sun_util.Rng.int rng (n - i) in
    after.(pos) <- base.(i) :: after.(pos)
  done;
  List.concat (List.init n (fun i -> base.(i) :: after.(i)))

(* Per connection, the requests of one mix repetition. *)
let streams rng ~total clients =
  let share = total / List.length clients in
  let stream reqs = Array.of_list (client_stream rng reqs ~extra:(max 0 (share - List.length reqs))) in
  Array.of_list (List.map stream clients)
