(* The miss path: chunk acquisition (staged prefetch or the wire),
   placement in the tcache under the configured replacement policy,
   rewriting, and installation. The policy is a parameter here — the
   only [Config.eviction] dispatch in the whole controller is the
   [Policy.create] call at construction time. *)

open Cc_state

(* Find room for [words_needed] words under an evicting policy.

   Free space first: placing at the sweep point without evicting keeps
   the policy out of the loop while the cache is filling (a policy
   victim exists as soon as anything is resident — consulting it on a
   cold cache would evict needlessly). Only when the sweep point is
   blocked does the policy pick the victim; seeding the circular sweep
   at the victim's placement reclaims that block first, and anything
   else the placement runs over is collateral.

   Processing the evictions can grow the persistent stub area down into
   the range we just reserved (stack scrubbing creates return stubs);
   re-allocate until the placement is clear, bounded by
   [t.alloc_guard] rounds. *)
let alloc_evicting t ~vaddr ~words_needed =
  let module P = (val t.policy : Policy.S) in
  let shard = Tcache.home_shard t.tc vaddr in
  let sh_lo, sh_top = Tcache.shard_bounds t.tc shard in
  let rec alloc_loop guard =
    if guard = 0 then
      raise
        (Alloc_guard_exhausted
           {
             loops = t.alloc_guard;
             base = sh_lo;
             persist_base = Tcache.persist_base ~shard t.tc;
             top = sh_top;
           })
    else begin
      let p, victims, chosen =
        match Tcache.alloc_append ~shard t.tc ~words:words_needed with
        | Ok p -> (p, [], None)
        | Error `Too_large -> raise (Chunk_too_large vaddr)
        | Error `Full -> (
          let chosen = P.victim ~shard t.tc in
          let placed =
            match chosen with
            | None -> Tcache.alloc_fifo ~shard t.tc ~words:words_needed
            | Some vb ->
              Tcache.alloc_seeded ~shard t.tc ~seed:vb.Tcache.paddr
                ~words:words_needed
          in
          match placed with
          | Error `Too_large -> raise (Chunk_too_large vaddr)
          | Error `Full -> raise Tcache_too_small
          | Ok (p, victims) -> (p, victims, chosen))
      in
      (* label the victims: the block the policy chose — or, when the
         sweep chose implicitly, the lowest-placed block the placement
         ran over (the tcache lists victims lowest address first) — is
         the victim; everything else the placement consumed is
         collateral. (Labelling every implicit-sweep victim [Victim] was
         a latent bug: multi-block placements hid their collateral
         damage from policies, stats and auditors.) *)
      let primary =
        match (chosen, victims) with
        | Some (vb : Tcache.block), _ -> vb.id
        | None, v0 :: _ -> v0.id
        | None, [] -> -1
      in
      Cc_evict.process_evicted t victims
        ~reason_of:(fun (b : Tcache.block) ->
          if b.id = primary then Policy.Victim else Policy.Collateral);
      if p + (4 * words_needed) <= Tcache.persist_base ~shard t.tc then p
      else alloc_loop (guard - 1)
    end
  in
  alloc_loop t.alloc_guard

(* Flush-all never evicts single blocks: append until the region is
   exhausted, then flush everything and retry once. *)
let alloc_flushing t ~vaddr ~words_needed =
  let shard = Tcache.home_shard t.tc vaddr in
  match Tcache.alloc_append ~shard t.tc ~words:words_needed with
  | Ok p -> p
  | Error `Too_large -> raise (Chunk_too_large vaddr)
  | Error `Full -> (
    Cc_evict.do_flush t;
    match Tcache.alloc_append ~shard t.tc ~words:words_needed with
    | Ok p -> p
    | Error `Too_large -> raise (Chunk_too_large vaddr)
    | Error `Full ->
      (* post-flush only pinned blocks remain in the way: a chunk
         that fits the region's capacity is being crowded out *)
      raise Tcache_too_small)

let translate_unit t v =
  if tracing t then trace t (Trace.Cc_miss { pc = v });
  (* a staged prefetched copy of this chunk skips the wire entirely;
     a corrupted one is discarded and the miss pays the round trip *)
  let chunk, from_staging =
    match Cc_staging.take_staged t v with
    | None -> (chunk_for t v, false)
    | Some s -> (
      match Cc_staging.chunk_of_staged v s with
      | Some c ->
        t.stats.prefetch_installs <- t.stats.prefetch_installs + 1;
        trace t (Trace.Cc_staged_install { chunk = v });
        (c, true)
      | None ->
        t.stats.prefetch_crc_failures <- t.stats.prefetch_crc_failures + 1;
        (chunk_for t v, false))
  in
  (* function granularity: every external callee of this unit calls
     through a persistent PLT slot. The slots must exist before layout
     (they determine which external [Jal]s need islands) and before
     placement (growing the slot area during translation could evict a
     block the rewriter already bound against). *)
  (if t.cfg.granularity = Config.Function then
     let on_stub_growth =
       Cc_evict.process_evicted t ~reason_of:(fun _ -> Policy.Stub_growth)
     in
     List.iter
       (fun fv ->
         ignore (Cc_evict.plt_slot t ~on_evicted:on_stub_growth fv))
       (Chunker.call_targets t.image chunk));
  let plt_of tv = Option.map fst (Hashtbl.find_opt t.plt tv) in
  let words_needed = Rewriter.layout_words ~plt_of chunk in
  let module P = (val t.policy : Policy.S) in
  let base =
    match P.kind with
    | `Evict -> alloc_evicting t ~vaddr:v ~words_needed
    | `Flush_all -> alloc_flushing t ~vaddr:v ~words_needed
  in
  if tracing t then
    trace t (Trace.Tc_alloc { chunk = v; base; bytes = 4 * words_needed });
  let id = t.next_block_id in
  t.next_block_id <- id + 1;
  let allocated = ref [] in
  let alloc_stub make =
    let k = add_stub t make in
    allocated := k :: !allocated;
    k
  in
  let emission =
    Rewriter.translate ~plt_of chunk ~block_id:id ~base
      ~resident:(resident_oracle t) ~alloc_stub
  in
  (* the rewritten words travel MC -> CC over the link (unless a staged
     prefetch already delivered the chunk body); a chunk that cannot be
     delivered intact within the retry budget must leave the cache
     state exactly as it was (minus any evictions already done) *)
  let word_at =
    if from_staging then Array.get emission.words
    else
      let prefetch =
        List.map
          (fun (c : Chunker.t) ->
            (c.vaddr, bytes_of_words (Array.map enc c.instrs)))
          (Cc_staging.prefetch_candidates t chunk)
      in
      match Cc_staging.fetch_chunk t ~vaddr:v ~words:emission.words ~prefetch with
      | demand -> word_of_bytes demand
      | exception (Chunk_unavailable _ as e) ->
        free_stub_list t !allocated;
        raise e
  in
  let emitted = Array.length emission.words in
  for i = 0 to emitted - 1 do
    write_word t (base + (4 * i)) (word_at i)
  done;
  let block =
    {
      Tcache.id;
      vaddr = v;
      paddr = base;
      words = emitted;
      orig_words = Array.length chunk.instrs;
      incoming = [];
      pads = emission.pads;
      resume = emission.resume;
      stubs = !allocated;
    }
  in
  Tcache.register t.tc block;
  P.on_install block;
  Hashtbl.replace t.install_cycle id t.cpu.cycles;
  (* test hook: evict a bound target between translation and the
     incoming-record loop, falsifying the loop's residency invariant *)
  (if t.chaos_evict_bound then
     match emission.bound with
     | (tb, _, _) :: _ -> (
       t.chaos_evict_bound <- false;
       match Tcache.find_by_id t.tc tb with
       | Some victim -> Tcache.remove t.tc victim
       | None -> ())
     | [] -> () (* keep the hook armed until a translation binds *));
  List.iter
    (fun (tb, site_paddr, revert_word) ->
      match Tcache.find_by_id t.tc tb with
      | Some target_block ->
        record_incoming t target_block ~from_block:id ~site_paddr
          ~revert_word
      | None ->
        (* the rewriter bound this exit against a block the resident
           oracle reported during this very translation; nothing may
           evict between translation and here *)
        raise
          (Internal_invariant_broken
             {
               chunk = v;
               detail =
                 Printf.sprintf
                   "bound exit target block %d vanished before its \
                    incoming pointer was recorded"
                   tb;
             }))
    emission.bound;
  Log.debug (fun m ->
      m "translate v=0x%x -> @0x%x (%d words, id=%d)" v base emitted id);
  t.stats.translations <- t.stats.translations + 1;
  t.stats.translated_words <- t.stats.translated_words + emitted;
  t.stats.overhead_words <- t.stats.overhead_words + emission.overhead_words;
  t.stats.max_resident_blocks <-
    max t.stats.max_resident_blocks (Tcache.resident_blocks t.tc);
  t.stats.max_occupied_bytes <-
    max t.stats.max_occupied_bytes (Tcache.occupied_bytes t.tc);
  charge t Trace.Translate
    (Config.miss_fixed_cycles + (Config.translate_cycles_per_word * emitted));
  if tracing t then
    trace t (Trace.Cc_translated { chunk = v; base; words = emitted });
  emit_event t (Translated v);
  (* function granularity: specialise this unit's own PLT slot into a
     direct jump. Unconditional — the unit was absent a moment ago, so
     its slot (if any) is trapping — and byte-reversible: the incoming
     record restores the trap when the unit is evicted. *)
  (match Hashtbl.find_opt t.plt v with
  | Some (slot_paddr, k) ->
    write_word t slot_paddr (enc (Isa.Instr.Jmp base));
    record_incoming t block ~from_block:(-1) ~site_paddr:slot_paddr
      ~revert_word:(enc (Isa.Instr.Trap k));
    t.stats.patches <- t.stats.patches + 1;
    t.stats.plt_patches <- t.stats.plt_patches + 1;
    charge t Trace.Patch Config.patch_cycles;
    trace t (Trace.Cc_backpatch { site = slot_paddr; target = base });
    emit_event t Patched
  | None -> ());
  block

(* The degradation rule: a whole-function unit the tcache can never
   hold must not abort the run — the function falls back to block
   granularity (sticky, via [gran_degraded]) and the miss retranslates
   small. Only a genuinely-too-large *block* still raises. *)
let rec translate t v =
  try translate_unit t v with
  | Chunk_too_large a
    when a = v
         && t.cfg.granularity = Config.Function
         && not (in_degraded_extent t v) ->
    (match Chunker.chunk_function t.image v with
    | c -> record_degraded t v (v + Chunker.span_bytes c)
    | exception _ -> record_degraded t v (v + 4));
    translate t v

(* The single block-entry observation point. Every control transfer the
   controller mediates — computed jumps, indirect calls, return stubs,
   unresolved direct exits — lands here; transfers along already-patched
   direct branches never trap, so the policy cannot see them. That is
   the paper's bargain made explicit: the cache state is encoded in the
   branches, so recency is observed only at trap granularity, at zero
   per-instruction cost. *)
let ensure_resident t v =
  match Tcache.lookup t.tc v with
  | Some b ->
    let module P = (val t.policy : Policy.S) in
    P.on_entry b;
    t.stats.policy_entries <- t.stats.policy_entries + 1;
    b
  | None -> translate t v
