(** Allocation sites for the SA070 hot-path pass.

    Per function, the direct allocation sites: closure creation,
    list/array/record/tuple literals, [ref], [@]/[^] appends,
    allocation-shaped stdlib calls, the [sprintf] family, [string_of_*]
    and [raise] with a payload. The pass walks the call graph itself, so
    a summary is not transitive.

    Known approximation limits, pinned by the runtime [Gc] oracle in
    [test/test_model_hot.ml]: partial application is outside the static
    vocabulary (a curried call that builds a closure is not flagged), and
    float boxing across non-inlined calls is invisible at the token level —
    both are exactly what the dynamic zero-allocation harness exists to
    catch. *)

type site = { s_line : int; s_col : int; s_desc : string }

type ann_kind = Hot | Cold

type annotation = {
  an_kind : ann_kind;
  an_line : int;  (** line of the marker comment *)
  an_target : int;  (** line of the binding it marks *)
}

val annotations : Lexer.t -> annotation list
(** Every [(* sunstone-hot *)] / [(* sunstone-cold *)] marker, with the line
    it targets resolved the same way lint suppressions are. *)

val summarize : Srcmod.t -> Srcmod.binding -> site list
(** Direct (non-transitive) allocation sites of one toplevel binding's
    body, in source order. *)
