(** The one name → workload / architecture table.

    Previously the CLI owned a private copy of this table; the batch
    pipeline, the benchmarks and the CLI now all resolve names here, so a
    workload spelled ["resnet18/conv2_x"] in a JSONL request, on the
    [sunstone schedule] command line, and in a benchmark is guaranteed to be
    the same workload. *)

val workloads : unit -> (string * Sun_tensor.Workload.t) list
(** Every built-in workload: the Table II tensor-algebra catalog instances,
    the ResNet-18 and Inception conv layers, and the non-DNN suites. The
    catalog is built on the first call (or the first {!find_workload}) and
    shared by every later one. *)

val architectures : (string * Sun_arch.Arch.t) list
(** The named architecture presets (paper Table IV plus toy). *)

val find_workload : string -> (Sun_tensor.Workload.t, string) result
(** Resolves a workload name to the catalog's workload, the same
    (physically equal) value on every call; the error message lists how
    to discover names. *)

val find_arch : string -> (Sun_arch.Arch.t, string) result
