(** The srclint scan driver: walk roots, model every file, run the
    per-file {!Rules} and the whole-program {!Rules.project_rules} (the
    cross-module SA060 and the SA070–SA074 hot-path passes), apply inline
    {!Suppress} comments, and report structured {!Diagnostic}s.

    Hits are errors; stale inline suppressions are SA065 warnings, so a
    silenced rule cannot rot without being seen. Inline comments are the
    only suppression mechanism — the legacy allowlist files are gone. *)

type hit = {
  h_path : string;
  h_line : int;
  h_col : int;
  h_text : string;  (** the offending source line, trimmed *)
  h_diag : Diagnostic.t;
}

type report = {
  files_scanned : int;
  tokens_seen : int;
  hits : hit list;  (** after suppression, in file/rule order *)
  suppressed : int;  (** inline-suppressed findings *)
  stale : Diagnostic.t list;  (** SA065 warnings *)
}

val walk : string -> string list
(** [*.ml] files under a directory root (skipping [_build] and
    dot-directories), or the root itself when it is a [.ml] file — the
    latter lets the tests point the scanner at a single bad fixture. *)

val hit_string : hit -> string
(** Grep-style ["path:line:text"]. *)

val diagnostics : report -> Diagnostic.t list
(** Hit diagnostics followed by stale-suppression warnings. *)

val scan :
  ?rules:Rules.rule list ->
  ?project_rules:Rules.project_rule list ->
  roots:string list ->
  unit ->
  report
(** Scan every file under [roots]. [rules] defaults to
    {!Rules.default_rules}; pass [Rules.unscoped] rules to lint fixtures.
    [project_rules] defaults to {!Rules.project_rules} and runs regardless
    of which per-file rules were chosen — the production clean-tree gate and
    the fixture gates exercise the same whole-program passes. *)
