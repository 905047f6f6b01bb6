(* RFC-4180 CSV quoting, shared by [Table.to_csv] and [Series.to_csv]:
   a cell containing a comma, quote or line break is quoted, with
   embedded quotes doubled. *)
let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s
  then "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let fmt_bytes n =
  if n < 1024 then Printf.sprintf "%d B" n
  else if n < 1024 * 1024 then Printf.sprintf "%.1f KB" (float_of_int n /. 1024.)
  else Printf.sprintf "%.1f MB" (float_of_int n /. (1024. *. 1024.))

let json_string s =
  let esc = function
    | '"' -> "\\\""
    | '\\' -> "\\\\"
    | c when Char.code c < 0x20 -> Printf.sprintf "\\u%04x" (Char.code c)
    | c -> String.make 1 c
  in
  "\"" ^ String.concat "" (List.map esc (List.of_seq (String.to_seq s))) ^ "\""

module Table = struct
  type cell =
    | Int of int
    | Bytes of int
    | Float of int * float
    | Str of string
    | Bool of bool
    | Opt of cell option
    | List of cell list

  type t = {
    title : string;
    columns : string list;
    mutable shown : string list;
    mutable rows : cell list list; (* reversed *)
  }

  let create ~title ~columns = { title; columns; shown = columns; rows = [] }
  let show t columns = t.shown <- columns

  let add t cells =
    if List.length cells <> List.length t.columns then
      invalid_arg "Report.Table.add: wrong number of cells";
    t.rows <- cells :: t.rows

  let add_row t cells = add t (List.map (fun s -> Str s) cells)
  let rows t = List.rev_map (List.combine t.columns) t.rows

  let rec text = function
    | Int n -> string_of_int n
    | Bytes n -> fmt_bytes n
    | Float (digits, x) -> Printf.sprintf "%.*f" digits x
    | Str s -> s
    | Bool b -> string_of_bool b
    | Opt None -> "-"
    | Opt (Some c) -> text c
    | List cs -> String.concat ", " (List.map text cs)

  let rec json = function
    | Int n | Bytes n -> string_of_int n
    | Float (_, x) when not (Float.is_finite x) -> "null"
    | Float (digits, x) -> Printf.sprintf "%.*f" digits x
    | Str s -> json_string s
    | Bool b -> string_of_bool b
    | Opt None -> "null"
    | Opt (Some c) -> json c
    | List cs -> "[" ^ String.concat ", " (List.map json cs) ^ "]"

  (* the rendered cells of the [shown] columns, header first *)
  let text_rows t =
    let pick row =
      List.filteri (fun i _ -> List.mem (List.nth t.columns i) t.shown) row
    in
    pick t.columns :: List.rev_map (fun r -> pick (List.map text r)) t.rows

  let render t =
    let all = text_rows t in
    let ws =
      List.fold_left
        (fun acc row -> List.map2 (fun w c -> max w (String.length c)) acc row)
        (List.map (fun _ -> 0) (List.hd all))
        all
    in
    let pad w s = s ^ String.make (w - String.length s) ' ' in
    let line row = "  " ^ String.concat "  " (List.map2 pad ws row) in
    let header = line (List.hd all) in
    (* underline exactly the rendered header (minus its two-space
       indent), so the separator never over- or undershoots the rows *)
    let sep = "  " ^ String.make (String.length header - 2) '-' in
    String.concat "\n" (t.title :: header :: sep :: List.map line (List.tl all))

  let print t =
    print_string (render t);
    print_newline ()

  let to_csv t =
    let row r = String.concat "," (List.map csv_escape r) in
    String.concat "\n" (List.map row (text_rows t))

  let to_json t =
    let obj r =
      "    { "
      ^ String.concat ", "
          (List.map2 (fun k c -> json_string k ^ ": " ^ json c) t.columns r)
      ^ " }"
    in
    Printf.sprintf "[\n%s\n  ]" (String.concat ",\n" (List.rev_map obj t.rows))
end

module Series = struct
  type t = {
    title : string;
    xlabel : string;
    ylabel : string;
    mutable pts : (float * float) list; (* reversed *)
  }

  let create ~title ~xlabel ~ylabel = { title; xlabel; ylabel; pts = [] }
  let add t x y = t.pts <- (x, y) :: t.pts
  let points t = List.rev t.pts

  let print ?(bar_width = 40) t =
    Printf.printf "%s\n" t.title;
    let pts = points t in
    let ymax = List.fold_left (fun a (_, y) -> Float.max a y) 0.0 pts in
    Printf.printf "  %14s  %12s\n" t.xlabel t.ylabel;
    List.iter
      (fun (x, y) ->
        (* a negative point under a positive [ymax] yields a negative
           length; clamp — the bar is simply empty below zero *)
        let n =
          if ymax <= 0.0 then 0
          else
            max 0 (int_of_float (y /. ymax *. float_of_int bar_width +. 0.5))
        in
        Printf.printf "  %14.4g  %12.5g  |%s\n" x y (String.make n '#'))
      pts

  let to_csv t =
    (* labels are caller-supplied free text: quote them like
       [Table.to_csv] does, or a comma in [xlabel] corrupts the header *)
    String.concat "\n"
      (Printf.sprintf "%s,%s" (csv_escape t.xlabel) (csv_escape t.ylabel)
      :: List.map
           (fun (x, y) ->
             Printf.sprintf "%s,%s"
               (csv_escape (Printf.sprintf "%g" x))
               (csv_escape (Printf.sprintf "%g" y)))
           (points t))
end

let mean = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

(* [log x] is -inf at 0 and nan below it, either of which silently
   poisons the whole summary row — so non-positive inputs are handled
   explicitly: rejected by default, or dropped on request. *)
let geomean ?(on_nonpositive = `Error) l =
  let usable =
    match on_nonpositive with
    | `Skip -> List.filter (fun x -> x > 0.0) l
    | `Error ->
      List.iter
        (fun x ->
          if x <= 0.0 then
            invalid_arg
              (Printf.sprintf "Report.geomean: non-positive value %g" x))
        l;
      l
  in
  match usable with
  | [] -> 0.0
  | l ->
    exp
      (List.fold_left (fun a x -> a +. log x) 0.0 l
      /. float_of_int (List.length l))

(* Exact nearest-rank percentile: sort, take element ceil(p/100 * n)
   (1-based), no interpolation — p50 of [1;2;3;4] is 2, not 2.5. The
   exactness matters for determinism gates: the same sample multiset
   always yields the same element, bit-for-bit. *)
let percentile p l =
  if l = [] then invalid_arg "Report.percentile: empty sample list";
  if p < 0.0 || p > 100.0 then
    invalid_arg (Printf.sprintf "Report.percentile: %g not in [0,100]" p);
  let sorted = List.sort compare l in
  let n = List.length sorted in
  let rank =
    max 1 (int_of_float (ceil (p /. 100.0 *. float_of_int n)))
  in
  List.nth sorted (rank - 1)

let section title =
  let bar = String.make 72 '=' in
  Printf.printf "\n%s\n%s\n%s\n" bar title bar

let kv key value = Printf.printf "  %-28s : %s\n" key value

let transport ~injected ~drops ~corruptions ~duplicates ~delay_spikes
    ~retries ~max_chunk_retries ~timeouts ~crc_failures ~recoveries
    ~chunk_failures =
  if injected || drops + corruptions + duplicates + delay_spikes + retries
                 + timeouts + crc_failures + recoveries + chunk_failures
                 > 0
  then begin
    kv "faults injected"
      (Printf.sprintf "%d dropped, %d corrupted, %d duplicated, %d delayed"
         drops corruptions duplicates delay_spikes);
    kv "recovery"
      (Printf.sprintf "%d retries (max %d per chunk), %d timeouts, %d CRC rejects"
         retries max_chunk_retries timeouts crc_failures);
    kv "chunks recovered" (string_of_int recoveries);
    kv "chunks unavailable" (string_of_int chunk_failures)
  end

let prefetch ~issued ~installs ~wasted ~crc_failures ~batches ~batch_chunks
    ~max_batch_chunks =
  if issued + installs + wasted + crc_failures + batches > 0 then begin
    kv "prefetch"
      (Printf.sprintf "%d issued, %d installed, %d wasted, %d CRC rejects"
         issued installs wasted crc_failures);
    kv "batched frames"
      (Printf.sprintf "%d (%d chunks total, largest %d)" batches batch_chunks
         max_batch_chunks)
  end

let policy ~name ~entries ~victim ~collateral ~stub_growth ~invalidated
    ~flushed ~ages =
  let evicted = victim + collateral + stub_growth + invalidated + flushed in
  if entries + evicted > 0 then begin
    kv "replacement policy"
      (Printf.sprintf "%s (%d observed block entries)" name entries);
    kv "evictions by reason"
      (Printf.sprintf
         "%d victim, %d collateral, %d stub-growth, %d invalidated, %d \
          flushed"
         victim collateral stub_growth invalidated flushed);
    if ages <> [] then
      kv "victim age (cycles)"
        (String.concat ", "
           (List.map
              (fun (lo, n) -> Printf.sprintf "%d+:%d" lo n)
              ages))
  end

let trace_summary ~total ~execute ~translate ~wire ~trap ~dcache ~patch
    ~scrub ~lookup ~events ~dropped ~capacity =
  let pct c =
    if total = 0 then "0.0%"
    else Printf.sprintf "%.1f%%" (100.0 *. float_of_int c /. float_of_int total)
  in
  let row name c = kv name (Printf.sprintf "%d cycles (%s)" c (pct c)) in
  row "execute" execute;
  row "translate" translate;
  row "wire latency" wire;
  row "trap dispatch" trap;
  if dcache > 0 then row "dcache overhead" dcache;
  row "patch" patch;
  row "scrub" scrub;
  row "lookup" lookup;
  kv "attributed total"
    (Printf.sprintf "%d cycles%s"
       (execute + translate + wire + trap + dcache + patch + scrub + lookup)
       (if execute + translate + wire + trap + dcache + patch + scrub + lookup
           = total
        then " (conserved)"
        else Printf.sprintf " — DOES NOT CONSERVE against %d" total));
  kv "events"
    (Printf.sprintf "%d recorded%s (ring capacity %d)" events
       (if dropped > 0 then Printf.sprintf ", %d dropped on wrap" dropped
        else "")
       capacity)
