(** The srclint scan driver: walk roots, model every file, run the
    per-file {!Rules.check_file} and the whole-program
    {!Rules.check_project} (the SA070, SA073 and SA074 hot-path pass),
    apply inline {!Suppress} comments, and report structured diagnostics.

    Hits are errors; stale inline suppressions are SA065 warnings, so a
    silenced rule cannot rot without being seen. Inline comments are the
    only suppression mechanism — the legacy allowlist files are gone. *)

type hit = {
  h_path : string;
  h_line : int;
  h_col : int;
  h_text : string;  (** the offending source line, trimmed *)
  h_diag : Sun_analysis.Diagnostic.t;
}

type report = {
  files_scanned : int;
  tokens_seen : int;
  hits : hit list;  (** after suppression, in file/rule order *)
  suppressed : int;  (** inline-suppressed findings *)
  stale : Sun_analysis.Diagnostic.t list;  (** SA065 warnings *)
}

val walk : string -> string list
(** [*.ml] files under a directory root (skipping [_build] and
    dot-directories), or the root itself when it is a [.ml] file — the
    latter lets the tests point the scanner at a single bad fixture. *)

val hit_string : hit -> string
(** Grep-style ["path:line:text"]. *)

val diagnostics : report -> Sun_analysis.Diagnostic.t list
(** Hit diagnostics followed by stale-suppression warnings. *)

val scan : ?lib_only:bool -> roots:string list -> unit -> report
(** Scan every file under [roots]. The per-file rules (SA044, SA064) run
    only on paths with a [lib] segment unless [lib_only] is [false], which
    the fixtures under [test/] need; the hot-path pass always runs on the
    whole set of files. *)
