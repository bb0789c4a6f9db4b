(** The committed bench documents ([BENCH_baseline.json],
    [BENCH_scaling.json]): one schema and one diff for every grid.

    A document names the grid that produced it and the seed it ran
    with, and lists named rows. Each row carries its own comparison
    rule, so the diff needs no knowledge of which grid it is checking. *)

type rule =
  | Exact
      (** a simulated quantity, a pure function of the seed: the re-run
          must reproduce it bit for bit *)
  | Max_growth
      (** a host measurement (wall clock, allocated words): it may fall
          freely and grow up to the threshold *)

type row = { name : string; value : float; rule : rule }

type grid =
  | Regression_gate  (** the fast [make check] grid *)
  | Scaling  (** the {!Scaling.sweep} with its default parameters *)

type doc = { grid : grid; seed : int64; rows : row list }

val schema_version : int
(** Version this build writes; {!of_string} rejects any other. *)

val grid_name : grid -> string

val to_string : doc -> string
(** JSON, one row per line: [{"schema_version":5,"grid":"scaling",
    "seed":"1000","rows":[{"name":...,"value":...,"rule":"exact"},...]}] *)

val of_string : string -> (doc, string) result
(** [Error] on malformed JSON, a missing or mistyped key, a
    [schema_version] other than {!schema_version}, an unknown grid or
    rule, or a row name that appears twice. *)

val save : string -> doc -> unit

val load : string -> (doc, string) result
(** {!of_string} on the file's contents; an unreadable file is an
    [Error] too. *)

type verdict = {
  name : string;
  base : row option;  (** [None]: the row is not in the baseline *)
  now : row option;  (** [None]: the re-run did not produce the row *)
  ok : bool;
}

val diff : threshold:float -> base:row list -> row list -> verdict list
(** One verdict per row name, baseline order first, then rows only the
    re-run has. A row passes when both sides have it under the same
    rule and, for [Exact], the values are equal, or, for [Max_growth],
    [(now - base) / base <= threshold] (any growth from a zero baseline
    fails). A row present on one side only fails. *)

val render_verdict : verdict -> string
(** One line: the name, both values, the relative change for
    [Max_growth] rows, and [ok] or [FAIL] with the reason. *)
