(* The CC staging buffer for prefetched chunks and the MC->CC chunk
   transport: CRC-verified delivery with retry/backoff, speculative
   chunk bodies riding demand frames, and candidate ranking. *)

open Cc_state

(* The queue tracks arrival order for bounded FIFO discard; consumed or
   invalidated entries leave stale vaddrs behind that are skipped here. *)
let rec make_staging_room t =
  if Hashtbl.length t.staging >= t.cfg.staging_chunks then
    match Queue.take_opt t.staging_order with
    | None -> ()
    | Some old ->
      if Hashtbl.mem t.staging old then begin
        Hashtbl.remove t.staging old;
        t.stats.prefetch_wasted <- t.stats.prefetch_wasted + 1
      end;
      make_staging_room t

let stage_chunk t vaddr st_bytes st_crc =
  if not (Hashtbl.mem t.staging vaddr) then begin
    make_staging_room t;
    Hashtbl.replace t.staging vaddr { st_bytes; st_crc };
    Queue.add vaddr t.staging_order;
    t.stats.prefetch_issued <- t.stats.prefetch_issued + 1
  end

let take_staged t v =
  match Hashtbl.find_opt t.staging v with
  | None -> None
  | Some s ->
    Hashtbl.remove t.staging v;
    Some s

let drop_staged_in t ~lo ~hi =
  let doomed =
    Hashtbl.fold
      (fun v (s : staged) acc ->
        if v < hi && v + Bytes.length s.st_bytes > lo then v :: acc else acc)
      t.staging []
  in
  List.iter
    (fun v ->
      Hashtbl.remove t.staging v;
      t.stats.prefetch_wasted <- t.stats.prefetch_wasted + 1)
    doomed

(* Ship a rewritten chunk from the MC to the CC through the (possibly
   faulty) interconnect, with up to [prefetch_degree] speculative chunk
   bodies riding in the same frame. The MC stamps each segment with a
   CRC32; the CC verifies the demand segment on receipt, waits out
   dropped frames, and re-requests with exponential backoff. Prefetched
   segments are staged unverified — their CRC is checked at install
   time. All waiting, wire time and backoff are charged through the
   cost model. Returns the verified demand segment as received. *)
let fetch_chunk t ~vaddr ~(words : int array) ~prefetch =
  (* MC-side CRC stamping goes through the [mc_crc] hook when set: a
     fleet MC memoizes stamps in its shared chunk cache, so identical
     content requested by many clients is CRC-computed once *)
  let stamp b = match t.mc_crc with Some f -> f b | None -> Crc32.bytes b in
  let payload = bytes_of_words words in
  let crc = stamp payload in
  let pf_segments = List.map (fun (pv, pb) -> (pv, pb, stamp pb)) prefetch in
  let payloads = payload :: List.map (fun (_, pb, _) -> pb) pf_segments in
  let prefetch_vaddrs = List.map (fun (pv, _, _) -> pv) pf_segments in
  let send () =
    match t.mc_transport with
    | None -> Netmodel.transfer_batch t.cfg.net ~payloads
    | Some f -> f ~vaddr ~prefetch_vaddrs ~payloads
  in
  let rec attempt tries =
    if tries > t.cfg.max_retries then begin
      t.stats.chunk_failures <- t.stats.chunk_failures + 1;
      Log.warn (fun m ->
          m "chunk v=0x%x unavailable after %d attempts" vaddr tries);
      raise (Chunk_unavailable { vaddr; attempts = tries })
    end;
    if tries > 0 then begin
      t.stats.net_retries <- t.stats.net_retries + 1;
      t.stats.max_chunk_retries <- max t.stats.max_chunk_retries tries;
      trace t (Trace.Cc_retry { chunk = vaddr; attempt = tries });
      charge t Trace.Wire (Config.retry_backoff_cycles * (1 lsl (tries - 1)))
    end;
    match send () with
    | Error (`Dropped wasted) ->
      charge t Trace.Wire (wasted + Config.timeout_cycles);
      t.stats.net_timeouts <- t.stats.net_timeouts + 1;
      attempt (tries + 1)
    | Ok (cycles, received) ->
      charge t Trace.Wire cycles;
      let demand, rest =
        match received with d :: r -> (d, r) | [] -> assert false
      in
      if Crc32.bytes demand <> crc then begin
        t.stats.crc_failures <- t.stats.crc_failures + 1;
        attempt (tries + 1)
      end
      else begin
        if tries > 0 then t.stats.recoveries <- t.stats.recoveries + 1;
        (demand, rest)
      end
  in
  let demand, rest = attempt 0 in
  (* pair up to the shorter list: a coalesced fleet delivery carries the
     demand segment only (nothing new went on the wire, so no prefetch
     riders arrive); the direct path always returns the full batch *)
  let rec stage_pairs pfs rs =
    match (pfs, rs) with
    | (pv, _, pcrc) :: pfs', received :: rs' ->
      stage_chunk t pv received pcrc;
      stage_pairs pfs' rs'
    | _, [] | [], _ -> ()
  in
  stage_pairs pf_segments rest;
  let staged = min (List.length pf_segments) (List.length rest) in
  if staged > 0 then begin
    let n = 1 + staged in
    t.stats.batches <- t.stats.batches + 1;
    t.stats.batch_chunks <- t.stats.batch_chunks + n;
    t.stats.max_batch_chunks <- max t.stats.max_batch_chunks n
  end;
  demand

(* Which chunks should ride along with this demand miss? Static
   successors of the chunk being translated, minus anything already
   resident or staged, ranked by the attached hotness oracle (profile
   samples over the chunk's source span) when there is one. *)
let prefetch_candidates t (chunk : Chunker.t) =
  if t.cfg.prefetch_degree = 0 || t.cfg.staging_chunks = 0 then []
  else begin
    let succs =
      match t.cfg.granularity with
      | Config.Block -> Chunker.successors t.image chunk
      | Config.Function ->
        (* internal block heads are already part of this unit; only
           edges leaving the span can miss next *)
        Chunker.external_successors t.image chunk
    in
    let cands =
      succs
      |> List.filter (fun a ->
             Tcache.lookup t.tc a = None && not (Hashtbl.mem t.staging a))
      |> List.filter_map (fun a ->
             match chunk_for t a with
             | c -> Some c
             | exception (Chunker.Bad_address _ | Chunker.Trap_in_source _) ->
               None)
    in
    let rank (c : Chunker.t) =
      match t.prefetch_ranker with
      | None -> 0
      | Some f -> f ~lo:c.vaddr ~hi:(c.vaddr + Chunker.span_bytes c)
    in
    let keyed = List.map (fun c -> (rank c, c)) cands in
    let ranked =
      List.stable_sort (fun (ka, _) (kb, _) -> compare kb ka) keyed
    in
    let rec take n = function
      | (_, c) :: rest when n > 0 -> c :: take (n - 1) rest
      | _ -> []
    in
    take t.cfg.prefetch_degree ranked
  end

(* Rebuild a [Chunker.t] from a staged chunk body: CRC-check then
   decode. [None] means the staged copy is unusable (corrupted in
   flight) and the miss must go back to the wire. *)
let chunk_of_staged v (s : staged) =
  if Crc32.bytes s.st_bytes <> s.st_crc then None
  else
    let words = words_of_bytes s.st_bytes in
    let n = Array.length words in
    let rec decode_all i acc =
      if i = n then Some (List.rev acc)
      else
        match Isa.Encode.decode words.(i) with
        | Some instr -> decode_all (i + 1) (instr :: acc)
        | None -> None
    in
    match decode_all 0 [] with
    | Some (_ :: _ as instrs) ->
      Some { Chunker.vaddr = v; instrs = Array.of_list instrs }
    | Some [] | None -> None
