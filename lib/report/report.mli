(** Result rendering for the benchmark harness.

    Plain-text tables, data series (the "figures"), ASCII bar charts
    and CSV output, plus the summary statistics the harness reports. *)

val csv_escape : string -> string
(** RFC-4180 CSV quoting: a cell containing a comma, double quote or
    CR/LF is double-quoted with embedded quotes doubled; anything else
    passes through. Shared by [Table.to_csv] and [Series.to_csv]. *)

module Table : sig
  (** A typed cell renders one way in the text table and one way in
      JSON, so a row is written once and serves both. *)
  type cell =
    | Int of int
    | Bytes of int  (** [fmt_bytes] in the table, an integer in JSON *)
    | Float of int * float  (** digits after the point, value *)
    | Str of string
    | Bool of bool
    | Opt of cell option  (** [None] is ["-"] in the table, [null] in JSON *)
    | List of cell list  (** comma-separated in the table, an array in JSON *)

  type t

  val create : title:string -> columns:string list -> t

  val add : t -> cell list -> unit
  (** @raise Invalid_argument if the cell count differs from the
      column count. *)

  val add_row : t -> string list -> unit
  (** [add] with every cell a [Str]. *)

  val show : t -> string list -> unit
  (** Restrict [render], [print] and [to_csv] to these columns;
      [rows] and [to_json] keep every column. *)

  val rows : t -> (string * cell) list list
  (** Every row in insertion order, each cell keyed by its column. *)

  val render : t -> string
  (** The aligned-column rendering as a string (no trailing newline);
      the header underline is exactly as wide as the rendered header
      line. *)

  val print : t -> unit
  (** [render] to stdout, newline-terminated. *)

  val to_csv : t -> string
  (** RFC-4180-style: cells containing commas, double quotes, or
      CR/LF are double-quoted with embedded quotes doubled. *)

  val text : cell -> string
  (** The cell as the table prints it. *)

  val json : cell -> string
  (** The cell as a JSON value; a non-finite [Float] is [null]. *)

  val to_json : t -> string
  (** A JSON array with one [{ "column": value, ... }] object per row,
      keys in column order, one row per line (indented for a field of
      a top-level object). *)
end

module Series : sig
  type t

  val create : title:string -> xlabel:string -> ylabel:string -> t
  val add : t -> float -> float -> unit
  val points : t -> (float * float) list

  val print : ?bar_width:int -> t -> unit
  (** Render as an aligned x/y listing with proportional ASCII bars —
      the textual stand-in for the paper's figures. Bar lengths are
      clamped to zero for negative points (they render as an empty
      bar, never a crash). *)

  val to_csv : t -> string
  (** Header and cells quoted like [Table.to_csv] ([csv_escape]). *)
end

val mean : float list -> float
(** 0 on the empty list. *)

val geomean : ?on_nonpositive:[ `Error | `Skip ] -> float list -> float
(** Geometric mean; 0 on the empty list. Non-positive inputs have no
    logarithm, so they are never fed to [log]: with [`Error] (the
    default) they raise [Invalid_argument]; with [`Skip] they are
    dropped and the mean is taken over the remaining positive values
    (0 if none remain). *)

val percentile : float -> float list -> float
(** [percentile p samples] — the exact nearest-rank percentile: the
    element of rank [max 1 (ceil (p/100 * n))] (1-based) of the sorted
    samples. No interpolation, so the result is always a member of the
    input — p50 of [[1;2;3;4]] is [2.], p100 is the maximum, p0 the
    minimum. Deterministic: the same sample multiset yields the same
    element bit-for-bit, which the fleet-determinism gates rely on.
    @raise Invalid_argument on an empty list or [p] outside [0,100]. *)

val fmt_bytes : int -> string
(** "800 B", "24.0 KB", "1.5 MB". *)

val section : string -> unit
(** Print a banner separating experiments in the harness output. *)

val kv : string -> string -> unit
(** [kv key value] prints an aligned "  key : value" line. *)

val transport :
  injected:bool ->
  drops:int ->
  corruptions:int ->
  duplicates:int ->
  delay_spikes:int ->
  retries:int ->
  max_chunk_retries:int ->
  timeouts:int ->
  crc_failures:int ->
  recoveries:int ->
  chunk_failures:int ->
  unit
(** Interconnect fault and recovery summary as [kv] rows. Prints
    nothing when [injected] is false and every counter is zero, so
    fault-free runs stay unchanged. *)

val prefetch :
  issued:int ->
  installs:int ->
  wasted:int ->
  crc_failures:int ->
  batches:int ->
  batch_chunks:int ->
  max_batch_chunks:int ->
  unit
(** Prefetch and batching summary as [kv] rows. Prints nothing when
    every counter is zero, so prefetch-off runs stay unchanged. *)

val policy :
  name:string ->
  entries:int ->
  victim:int ->
  collateral:int ->
  stub_growth:int ->
  invalidated:int ->
  flushed:int ->
  ages:(int * int) list ->
  unit
(** Replacement-policy summary as [kv] rows: observed block entries,
    eviction counts broken down by reason, and the victim-age
    histogram ([Stats.victim_ages] pairs, printed as "lo+:count").
    Prints nothing when no entries were observed and nothing was
    evicted, so eviction-free runs stay unchanged. *)

val trace_summary :
  total:int ->
  execute:int ->
  translate:int ->
  wire:int ->
  trap:int ->
  dcache:int ->
  patch:int ->
  scrub:int ->
  lookup:int ->
  events:int ->
  dropped:int ->
  capacity:int ->
  unit
(** Cycle-attribution summary as [kv] rows: per-category cycles with
    their share of [total] (the CPU cycle counter), whether the
    categories conserve against it, and the event-ring occupancy
    including events dropped on wrap. *)
