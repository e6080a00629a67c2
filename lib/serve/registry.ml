(* Built on first use, so a daemon that never resolves a name never
   builds it, and every later lookup returns the same workload values. *)
let catalog =
  lazy
    (let open Sun_tensor.Catalog in
     let resnet =
       List.map
         (fun (l : Sun_workloads.Resnet18.layer) ->
           ("resnet18/" ^ l.Sun_workloads.Resnet18.layer_name, l.Sun_workloads.Resnet18.workload))
         (Sun_workloads.Resnet18.layers ())
     in
     let inception =
       List.map
         (fun (l : Sun_workloads.Inception.layer) ->
           ("inception/" ^ l.Sun_workloads.Inception.layer_name, l.Sun_workloads.Inception.workload))
         (Sun_workloads.Inception.conv_layers ())
     in
     let non_dnn =
       List.map
         (fun (i : Sun_workloads.Non_dnn.instance) ->
           (i.Sun_workloads.Non_dnn.instance_name, i.Sun_workloads.Non_dnn.workload))
         Sun_workloads.Non_dnn.all
     in
     [
       ("conv1d", conv1d ~k:4 ~c:4 ~p:14 ~r:3 ());
       ("conv2d", conv2d ~n:1 ~k:64 ~c:64 ~p:14 ~q:14 ~r:3 ~s:3 ());
       ("matmul", matmul ~m:512 ~n:512 ~k:512 ());
       ("mttkrp", mttkrp ~i:1024 ~j:32 ~k:512 ~l:512 ());
       ("sddmm", sddmm ~i:1024 ~j:1024 ~k:512 ());
       ("ttmc", ttmc ~i:512 ~j:256 ~k:256 ~l:8 ~m:8 ());
       ("mmc", mmc ~i:512 ~j:512 ~k:512 ~l:512 ());
       ("tcl", tcl ~i:64 ~j:64 ~k:64 ~l:32 ~m:32 ~n:32 ());
     ]
     @ resnet @ inception @ non_dnn)

let workloads () = Lazy.force catalog

let architectures = Sun_arch.Presets.all

let find_workload name =
  match List.assoc_opt name (workloads ()) with
  | Some w -> Ok w
  | None -> Error (Printf.sprintf "unknown workload %S (try `sunstone list`)" name)

let find_arch name =
  match List.assoc_opt name architectures with
  | Some a -> Ok a
  | None -> Error (Printf.sprintf "unknown architecture %S (try `sunstone list`)" name)
