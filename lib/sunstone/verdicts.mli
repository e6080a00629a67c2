(** The fit-verdict table of a tiling scope ({!Tile_tree.scope}): an
    open-addressing map from lattice keys, non-negative ints below
    [max_int], to fit verdicts. Its size follows the number of keys added,
    never the size of the key space. {!find}, and {!add} while the table
    stays at most half full, allocate nothing; the Gc oracle in
    [test/test_model_hot.ml] pins both. *)

type t

val create : unit -> t

val length : t -> int
(** the number of keys recorded *)

val find : t -> int -> int
(** [find t key] is [1] when [key] was recorded as fitting, [0] when as not
    fitting, and [-1] when it was never recorded. *)

val add : t -> int -> bool -> unit
(** [add t key fit] records [key]'s verdict, replacing any earlier one. It
    first doubles the table when one more key would leave it over half
    full. *)
