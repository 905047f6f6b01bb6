(* Tcache invariant auditor.

   Walks the controller's concrete state — resident blocks, the stub
   table, recorded incoming pointers, persistent return stubs, the pin
   set — and cross-checks it against the encoded words actually sitting
   in client memory. Every patched pointer must be accounted for: the
   whole eviction protocol rests on "incoming pointers are recorded at
   the time they are created", so a single missing record is a latent
   wild branch after the target block dies. *)

open Softcache

type violation = { invariant : string; detail : string }

exception Audit_failure of violation list

let pp_violation ppf v = Format.fprintf ppf "[%s] %s" v.invariant v.detail

let word (t : Controller.t) paddr = Machine.Memory.read32 t.cpu.mem paddr

let block_range (b : Tcache.block) = (b.paddr, b.paddr + (4 * b.words))

let in_block (b : Tcache.block) p =
  let lo, hi = block_range b in
  p >= lo && p < hi

(* Does [w], fetched from [site], transfer control to the start of
   [b]?  Branch offsets are pc-relative in words; jumps are absolute. *)
let aims_at ~site ~(b : Tcache.block) w =
  match Isa.Encode.decode w with
  | Some (Isa.Instr.Jmp p) | Some (Isa.Instr.Jal p) -> p = b.paddr
  | Some (Isa.Instr.Br (_, _, _, d)) -> site + (4 * d) = b.paddr
  | Some _ | None -> false

(* The control-flow target of [w] at [site], if it has a static one. *)
let static_target ~site w =
  match Isa.Encode.decode w with
  | Some (Isa.Instr.Jmp p) | Some (Isa.Instr.Jal p) -> Some p
  | Some (Isa.Instr.Br (_, _, _, d)) -> Some (site + (4 * d))
  | Some _ | None -> None

let has_incoming (b : Tcache.block) ~site_paddr =
  List.exists
    (fun (i : Tcache.incoming) -> i.site_paddr = site_paddr)
    b.incoming

let run (t : Controller.t) : violation list =
  let viols = ref [] in
  let add invariant fmt =
    Format.kasprintf
      (fun detail -> viols := { invariant; detail } :: !viols)
      fmt
  in
  let tc = t.tc in
  let blocks = Tcache.blocks tc in
  let base = Tcache.base tc in
  let top = Tcache.top tc in
  (* is [p] inside some shard's persistent stub area?  (the whole
     region when unsharded — shard 0's [persist_base, top)) *)
  let in_stub_area p =
    p >= base && p < top
    &&
    let sh = Tcache.shard_of_paddr tc p in
    let _, sh_top = Tcache.shard_bounds tc sh in
    p >= Tcache.persist_base ~shard:sh tc && p < sh_top
  in
  let by_paddr = Hashtbl.create 64 in
  List.iter (fun (b : Tcache.block) -> Hashtbl.replace by_paddr b.paddr b) blocks;

  (* -- blocks sit inside their home shard's code area and never
        overlap.  The home-shard routing is part of the invariant: a
        block placed in the right byte range but the wrong arena means
        the allocator and the policy's ?shard filtering disagree about
        who owns it. *)
  List.iter
    (fun (b : Tcache.block) ->
      let lo, hi = block_range b in
      if lo < base || hi > top then
        add "region" "block v=0x%x [0x%x,0x%x) outside tcache [0x%x,0x%x)"
          b.vaddr lo hi base top
      else begin
        let sh = Tcache.home_shard tc b.vaddr in
        let sh_lo, _ = Tcache.shard_bounds tc sh in
        let sh_pb = Tcache.persist_base ~shard:sh tc in
        if lo < sh_lo || hi > sh_pb then
          add "region"
            "block v=0x%x [0x%x,0x%x) outside its home shard %d code area \
             [0x%x,0x%x)"
            b.vaddr lo hi sh sh_lo sh_pb
      end)
    blocks;
  let sorted =
    List.sort
      (fun (a : Tcache.block) (b : Tcache.block) -> compare a.paddr b.paddr)
      blocks
  in
  let rec overlap_chain = function
    | (a : Tcache.block) :: ((b : Tcache.block) :: _ as rest) ->
      if a.paddr + (4 * a.words) > b.paddr then
        add "overlap" "blocks v=0x%x@0x%x and v=0x%x@0x%x overlap" a.vaddr
          a.paddr b.vaddr b.paddr;
      overlap_chain rest
    | [ _ ] | [] -> ()
  in
  overlap_chain sorted;

  (* -- tcache map agrees with residency ----------------------------- *)
  if Tcache.map_entries tc <> Tcache.resident_blocks tc then
    add "map" "map has %d entries but %d blocks are resident"
      (Tcache.map_entries tc)
      (Tcache.resident_blocks tc);
  List.iter
    (fun (b : Tcache.block) ->
      match Tcache.lookup tc b.vaddr with
      | Some b' when b'.id = b.id -> ()
      | Some b' ->
        add "map" "map[v=0x%x] names block id=%d, expected id=%d" b.vaddr
          b'.id b.id
      | None -> add "map" "resident block v=0x%x missing from map" b.vaddr)
    blocks;

  (* -- the owner index agrees with residency: residency, written as
        maximal runs (each resident block, and the free gaps between
        them), must equal the index's own runs. A word that lost its
        owner and a free word that gained one both split a run. *)
  let rec residency p = function
    | [] -> if p < top then [ (p, top, -1) ] else []
    | (b : Tcache.block) :: rest ->
      let hi = b.paddr + (4 * b.words) in
      let run = (b.paddr, hi, b.id) :: residency hi rest in
      if b.paddr > p then (p, b.paddr, -1) :: run else run
  in
  let rec first_diff want got =
    match (want, got) with
    | w :: want', g :: got' when w = g -> first_diff want' got'
    | [], [] -> ()
    | (lo, hi, id) :: _, _ ->
      add "owner"
        "residency has [0x%x,0x%x) as id=%d (-1 = free), the owner index \
         %s"
        lo hi id
        (match got with
        | (glo, ghi, gid) :: _ ->
          Printf.sprintf "has [0x%x,0x%x) as id=%d" glo ghi gid
        | [] -> "ends there")
    | [], (glo, ghi, gid) :: _ ->
      add "owner" "the owner index has [0x%x,0x%x) as id=%d past residency"
        glo ghi gid
  in
  first_diff (residency base sorted) (Tcache.owner_runs tc);

  (* -- the running occupancy counter equals the fold ---------------- *)
  let folded =
    List.fold_left
      (fun acc (b : Tcache.block) -> acc + (4 * b.words))
      0 blocks
    + List.fold_left
        (fun acc sh ->
          let _, sh_top = Tcache.shard_bounds tc sh in
          acc + (sh_top - Tcache.persist_base ~shard:sh tc))
        0
        (List.init (Tcache.shards tc) Fun.id)
  in
  if Tcache.occupied_bytes tc <> folded then
    add "occupancy"
      "occupied_bytes reads %d B, resident blocks plus stub areas sum to %d B"
      (Tcache.occupied_bytes tc) folded;

  (* -- pinned ids name resident blocks ------------------------------ *)
  List.iter
    (fun id ->
      if not (Tcache.is_alive tc id) then
        add "pinned" "pinned id=%d is not resident" id)
    (Tcache.pinned_ids tc);

  (* -- leased ids name resident blocks ------------------------------ *)
  List.iter
    (fun id ->
      if not (Tcache.is_alive tc id) then
        add "leased" "leased id=%d is not resident" id)
    (Tcache.leased_ids tc);

  (* -- every recorded incoming pointer decodes sensibly ------------- *)
  List.iter
    (fun (b : Tcache.block) ->
      List.iter
        (fun (inc : Tcache.incoming) ->
          let live_src =
            inc.from_block = -1 || Tcache.is_alive tc inc.from_block
          in
          if live_src then begin
            let w = word t inc.site_paddr in
            if w <> inc.revert_word && not (aims_at ~site:inc.site_paddr ~b w)
            then
              add "incoming"
                "site 0x%x recorded on v=0x%x holds 0x%08x: neither the \
                 revert word nor a branch to 0x%x"
                inc.site_paddr b.vaddr w b.paddr
          end)
        b.incoming)
    blocks;

  (* -- exit stubs: each site is in its revert state or patched at a
        resident, recorded target ------------------------------------ *)
  let check_exit b k = function
    | Stub.Exit { block; site_paddr; kind; target; revert_word } ->
      let b = (b : Tcache.block) in
      if block <> b.id then
        add "stub" "stub %d owned by block id=%d but records block=%d" k
          b.id block;
      if not (in_block b site_paddr) then
        add "stub" "exit stub %d site 0x%x outside its block v=0x%x" k
          site_paddr b.vaddr;
      let w = word t site_paddr in
      if w = revert_word then begin
        (* branch exits trap through an in-block island; when the site
           is in its miss state the island must either still trap or be
           specialised into a recorded direct jump *)
        match kind with
        | Stub.Patch_br -> (
          match Isa.Encode.decode revert_word with
          | Some (Isa.Instr.Br (_, _, _, d)) -> (
            let island = site_paddr + (4 * d) in
            if not (in_block b island) then
              add "stub" "stub %d br island 0x%x outside block v=0x%x" k
                island b.vaddr
            else
              match Isa.Encode.decode (word t island) with
              | Some (Isa.Instr.Trap j) ->
                if j <> k then
                  add "stub" "island 0x%x traps to %d, expected stub %d"
                    island j k
              | Some (Isa.Instr.Jmp p) -> (
                match Tcache.lookup tc target with
                | Some tb when tb.paddr = p ->
                  if not (has_incoming tb ~site_paddr:island) then
                    add "incoming"
                      "island 0x%x jumps to v=0x%x but is not recorded as \
                       an incoming pointer"
                      island target
                | Some tb ->
                  add "stub"
                    "island 0x%x jumps to 0x%x but v=0x%x resides at 0x%x"
                    island p target tb.paddr
                | None ->
                  add "stub"
                    "island 0x%x specialised for dead target v=0x%x" island
                    target)
              | _ ->
                add "stub" "island 0x%x holds neither trap nor jump" island)
          | _ ->
            add "stub" "br stub %d revert word is not a branch" k)
        | Stub.Patch_jmp | Stub.Patch_jal -> ()
      end
      else begin
        (* site patched: must aim at the resident target block, and the
           target must know about it *)
        match Tcache.lookup tc target with
        | None ->
          add "stub"
            "exit site 0x%x is patched but its target v=0x%x is dead"
            site_paddr target
        | Some tb ->
          if not (aims_at ~site:site_paddr ~b:tb w) then
            add "stub"
              "exit site 0x%x holds 0x%08x, not a branch to v=0x%x@0x%x"
              site_paddr w target tb.paddr
          else if not (has_incoming tb ~site_paddr) then
            add "incoming"
              "patched exit site 0x%x not recorded on target v=0x%x"
              site_paddr target
      end
    | Stub.Computed _ -> ()
    | Stub.Icall { pad_paddr; _ } ->
      if not (in_block b pad_paddr) then
        add "stub" "icall stub %d pad 0x%x outside its block" k pad_paddr
    | Stub.Ret_stub _ ->
      add "stub" "block v=0x%x owns stub %d, which is a return stub"
        b.Tcache.vaddr k
    | Stub.Plt _ ->
      add "stub" "block v=0x%x owns stub %d, which is a PLT slot"
        b.Tcache.vaddr k
  in
  List.iter
    (fun (b : Tcache.block) ->
      List.iter
        (fun k ->
          if k < 0 || k >= t.nstubs then
            add "stub" "block v=0x%x owns out-of-range stub %d" b.vaddr k
          else check_exit b k t.stubs.(k))
        b.stubs)
    blocks;

  (* -- reverse scan: every encoded branch out of a block lands on a
        block start and is recorded there.  This is the completeness
        direction — it catches incoming pointers that were created but
        never recorded, the bug class [chaos_drop_incoming] seeds.
        Function-granularity calls are the one legitimate exception: a
        [Jal] into a PLT slot targets the persistent-stub area, never a
        block start, and needs no record (the slot word, not the call
        site, is what the controller patches). ----- *)
  let plt_slot_paddrs = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _fv (paddr, _) -> Hashtbl.replace plt_slot_paddrs paddr ())
    t.plt;
  List.iter
    (fun (b : Tcache.block) ->
      for i = 0 to b.words - 1 do
        let site = b.paddr + (4 * i) in
        let w = word t site in
        (match static_target ~site w with
        | Some p when not (in_block b p) -> (
          match Hashtbl.find_opt by_paddr p with
          | Some tb ->
            if not (has_incoming tb ~site_paddr:site) then
              add "incoming"
                "word at 0x%x (block v=0x%x) branches to v=0x%x@0x%x \
                 without an incoming record"
                site b.vaddr tb.vaddr p
          | None ->
            if not (Hashtbl.mem plt_slot_paddrs p) then
              add "wild"
                "word at 0x%x (block v=0x%x) branches to 0x%x, which is \
                 neither a block start nor a PLT slot"
                site b.vaddr p)
        | Some _ | None -> ());
        match Isa.Encode.decode w with
        | Some (Isa.Instr.Trap j) ->
          if j < 0 || j >= t.nstubs then
            add "trap" "word at 0x%x traps to out-of-range stub %d" site j
          else if not (List.mem j b.stubs) then
            add "trap"
              "word at 0x%x (block v=0x%x) traps to stub %d, which the \
               block does not own"
              site b.vaddr j
        | _ -> ()
      done)
    blocks;

  (* -- persistent return stubs -------------------------------------- *)
  Hashtbl.iter
    (fun rv (paddr, k) ->
      if not (in_stub_area paddr) then
        add "ret-stub" "return stub for v=0x%x at 0x%x outside stub area"
          rv paddr;
      (if k < 0 || k >= t.nstubs then
         add "ret-stub" "return stub for v=0x%x has bad index %d" rv k
       else
         match t.stubs.(k) with
         | Stub.Ret_stub { site_paddr; target } ->
           if site_paddr <> paddr || target <> rv then
             add "ret-stub" "stub %d disagrees with the return-stub table" k
         | _ ->
           add "ret-stub" "stub %d for return v=0x%x is not a return stub"
             k rv);
      match Isa.Encode.decode (word t paddr) with
      | Some (Isa.Instr.Trap j) ->
        if j <> k then
          add "ret-stub" "return stub 0x%x traps to %d, expected %d" paddr
            j k
      | Some (Isa.Instr.Jmp p) -> (
        match Tcache.lookup tc rv with
        | Some tb when tb.paddr = p ->
          if not (has_incoming tb ~site_paddr:paddr) then
            add "incoming"
              "specialised return stub 0x%x not recorded on v=0x%x" paddr
              rv
        | Some tb ->
          add "ret-stub"
            "return stub 0x%x jumps to 0x%x but v=0x%x resides at 0x%x"
            paddr p rv tb.paddr
        | None ->
          add "ret-stub" "return stub 0x%x specialised for dead v=0x%x"
            paddr rv)
      | _ ->
        add "ret-stub" "return stub 0x%x holds neither trap nor jump" paddr)
    t.ret_stubs;

  (* -- PLT slot table ------------------------------------------------ *)
  (* One persistent slot per function the cached code calls through:
     the slot sits in the stub area, its stub entry mirrors the table,
     and the slot word encodes residency exactly — a trap to its own
     stub while the function is absent, a recorded direct jump to the
     resident unit while it is present. The safe directions only: an
     unpatched slot over a resident target is legal (install and slot
     patch are distinct steps), a patched slot over a dead target is
     the wild-branch bug this section exists to catch. *)
  Hashtbl.iter
    (fun fv (paddr, k) ->
      if not (in_stub_area paddr) then
        add "plt" "slot for v=0x%x at 0x%x outside stub area" fv paddr;
      (if k < 0 || k >= t.nstubs then
         add "plt" "slot for v=0x%x has bad stub index %d" fv k
       else
         match t.stubs.(k) with
         | Stub.Plt { slot_paddr; target } ->
           if slot_paddr <> paddr || target <> fv then
             add "plt" "stub %d disagrees with the PLT table" k
         | _ ->
           add "plt" "stub %d for function v=0x%x is not a PLT slot" k fv);
      match Isa.Encode.decode (word t paddr) with
      | Some (Isa.Instr.Trap j) ->
        if j <> k then
          add "plt" "slot 0x%x traps to %d, expected %d" paddr j k
      | Some (Isa.Instr.Jmp p) -> (
        match Tcache.lookup tc fv with
        | Some tb when tb.paddr = p ->
          if not (has_incoming tb ~site_paddr:paddr) then
            add "incoming" "patched PLT slot 0x%x not recorded on v=0x%x"
              paddr fv
        | Some tb ->
          add "plt" "slot 0x%x jumps to 0x%x but v=0x%x resides at 0x%x"
            paddr p fv tb.paddr
        | None ->
          add "plt" "slot 0x%x patched for dead function v=0x%x" paddr fv)
      | _ -> add "plt" "slot 0x%x holds neither trap nor jump" paddr)
    t.plt;

  (* -- stub-table accounting ---------------------------------------- *)
  let owned =
    List.fold_left
      (fun acc (b : Tcache.block) -> acc + List.length b.stubs)
      0 blocks
    + Hashtbl.length t.ret_stubs
    + Hashtbl.length t.plt
  in
  if t.live_stubs <> owned then
    add "accounting" "live_stubs=%d but blocks+return stubs own %d"
      t.live_stubs owned;
  let free = List.length t.free_stubs in
  if t.live_stubs + free <> t.nstubs then
    add "accounting" "live=%d + free=%d <> allocated=%d" t.live_stubs free
      t.nstubs;
  let seen = Hashtbl.create 64 in
  List.iter
    (fun k ->
      if Hashtbl.mem seen k then
        add "accounting" "stub %d appears twice on the free list" k;
      Hashtbl.replace seen k ())
    t.free_stubs;
  let check_live_not_free where k =
    if Hashtbl.mem seen k then
      add "accounting" "stub %d is both %s and on the free list" k where
  in
  List.iter
    (fun (b : Tcache.block) ->
      List.iter (check_live_not_free "owned by a block") b.stubs)
    blocks;
  Hashtbl.iter
    (fun _ (_, k) -> check_live_not_free "a return stub" k)
    t.ret_stubs;
  Hashtbl.iter (fun _ (_, k) -> check_live_not_free "a PLT slot" k) t.plt;
  let expected_md =
    (Tcache.map_entries tc * 12) + (t.live_stubs * 8)
    + (Hashtbl.length t.plt * 12)
  in
  if Controller.metadata_bytes t <> expected_md then
    add "accounting" "metadata_bytes=%d, recomputed %d"
      (Controller.metadata_bytes t) expected_md;

  (* -- prefetch staging buffer ---------------------------------------- *)
  (* Staged chunk bodies live CC-side only: a staged vaddr that is also
     resident means first touch went to the wire (or a translate forgot
     to consume its staged copy) — the copy can silently go stale. The
     bound is what keeps staging memory finite on the client. *)
  if Hashtbl.length t.staging > t.cfg.staging_chunks then
    add "staging" "staging holds %d chunks, bound is %d"
      (Hashtbl.length t.staging) t.cfg.staging_chunks;
  Hashtbl.iter
    (fun v (_ : Controller.staged) ->
      if Tcache.lookup tc v <> None then
        add "staging" "staged chunk v=0x%x aliases a resident block" v)
    t.staging;

  (* -- decode-cache coherence ---------------------------------------- *)
  (* The rewriter has just patched words all over the tcache; every
     valid predecode line must still agree with what a fresh decode of
     the underlying memory word produces.  A disagreement means a write
     path skipped the in-memory invalidation — the stale-instruction
     bug class the decode cache's design forbids by construction. *)
  List.iter
    (fun addr ->
      add "decode-coherence"
        "decode cache entry at 0x%x disagrees with the word in memory" addr)
    (Machine.Memory.decode_audit t.cpu.mem);

  (* -- replacement policy's resident view ----------------------------- *)
  (* The policy keeps its own table of residents, fed only by the
     observe hooks; any drift from the tcache means a hook was skipped
     (an install the policy never saw, or an eviction path that forgot
     to notify it) and the policy is now reasoning about ghosts. And
     [victim] must never name a pinned block: pin means exempt from
     eviction, full stop — the allocator trusts the policy on this. *)
  (let module P = (val t.policy : Softcache.Policy.S) in
   let tc_ids = List.sort compare (List.map (fun (b : Tcache.block) -> b.id) blocks) in
   let p_ids = List.sort compare (P.resident_ids ()) in
   if tc_ids <> p_ids then
     add "policy"
       "policy '%s' resident view %s disagrees with tcache ids %s (%s)"
       P.name
       (String.concat "," (List.map string_of_int p_ids))
       (String.concat "," (List.map string_of_int tc_ids))
       (P.debug_state ());
   match P.victim tc with
   | Some vb when Tcache.is_pinned tc vb.Tcache.id ->
     add "policy" "policy '%s' picked pinned block id=%d as victim (%s)"
       P.name vb.Tcache.id (P.debug_state ())
   | Some vb when not (Tcache.is_alive tc vb.Tcache.id) ->
     add "policy" "policy '%s' picked dead block id=%d as victim (%s)"
       P.name vb.Tcache.id (P.debug_state ())
   | Some _ | None -> ());

  (* -- trace attribution conserves ------------------------------------ *)
  (* Every explicit charge site labels its cycles and the residual is
     swept into execute, so the ledger must sum exactly to the CPU
     cycle counter at any audit point.  A gap means a charge path lost
     its label (or double-counted one) — the attribution numbers in the
     report would silently lie. *)
  (match t.tracer with
  | None -> ()
  | Some tr ->
    (* with harts attached the tracer's clock hops between per-hart
       cycle counters, so the single-counter conservation law does not
       apply — the per-hart ledger in [shards] replaces it *)
    if
      Array.length t.harts = 0
      && not (Trace.conserved tr ~total:t.cpu.cycles)
    then begin
      let s = Trace.summary tr in
      add "trace"
        "attribution does not conserve: categories sum to %d, cpu.cycles=%d"
        s.Trace.s_total t.cpu.cycles
    end;
    let s = Trace.summary tr in
    if s.Trace.s_dropped <> max 0 (s.Trace.s_emitted - s.Trace.s_capacity)
    then
      add "trace" "ring accounting: emitted=%d capacity=%d but dropped=%d"
        s.Trace.s_emitted s.Trace.s_capacity s.Trace.s_dropped);

  List.rev !viols

let check_exn t =
  match run t with [] -> () | vs -> raise (Audit_failure vs)

let install (t : Controller.t) =
  let audits = ref 0 in
  let prev = t.on_event in
  t.on_event <-
    Some
      (fun ev ->
        (match prev with Some f -> f ev | None -> ());
        incr audits;
        check_exn t);
  audits

let install_if_configured (t : Controller.t) =
  if t.cfg.audit then Some (install t) else None

(* ---- multi-hart (sharded CC) invariants ---------------------------

   On top of the full per-controller audit, the shard layer's own
   books: the fill state machine (single-owner fills, nothing in
   flight at a quiescent point), the suspension-lease discipline
   (every parked hart's lease covers the block its pc sits in, and the
   tcache's lease counts are exactly the sum of hart leases), and the
   per-hart cycle ledger (run + fill-wait + mc-wait = the hart's cycle
   counter — the multi-hart replacement for the solo trace
   conservation law). *)

let shards (s : Shard.t) : violation list =
  let viols = ref [] in
  let add invariant fmt =
    Format.kasprintf
      (fun detail -> viols := { invariant; detail } :: !viols)
      fmt
  in
  let c = Shard.controller s in
  let tc = c.tc in
  let blocks = Tcache.blocks tc in
  let harts = Shard.harts s in
  let n = List.length harts in

  (* -- no two resident blocks map the same backing chunk ------------ *)
  let seen_v = Hashtbl.create 64 in
  List.iter
    (fun (b : Tcache.block) ->
      (match Hashtbl.find_opt seen_v b.vaddr with
      | Some id ->
        add "shard-unique"
          "chunk v=0x%x resident twice (block ids %d and %d)" b.vaddr id
          b.id
      | None -> ());
      Hashtbl.replace seen_v b.vaddr b.id)
    blocks;

  (* -- fill state machine: single owners, quiescent in-flight set --- *)
  List.iter
    (fun (f : Shard.fill) ->
      if f.f_owner < 0 || f.f_owner >= n then
        add "shard-fill" "fill for v=0x%x owned by out-of-range hart %d"
          f.f_vaddr f.f_owner;
      match f.f_state with
      | Shard.Resident ->
        if f.f_done = max_int then
          add "shard-fill" "resident fill for v=0x%x has no completion stamp"
            f.f_vaddr
      | Shard.Requested | Shard.Filling ->
        if f.f_done <> max_int then
          add "shard-fill" "in-flight fill for v=0x%x carries stamp %d"
            f.f_vaddr f.f_done)
    (Shard.fills s);
  List.iter
    (fun (f : Shard.fill) ->
      add "shard-fill" "fill for v=0x%x still %s at a quiescent point"
        f.f_vaddr
        (Shard.state_name f.f_state))
    (Shard.in_flight s);

  (* -- lease discipline --------------------------------------------- *)
  let block_of pc =
    List.find_opt
      (fun (b : Tcache.block) ->
        pc >= b.paddr && pc < b.paddr + (4 * b.words))
      blocks
  in
  List.iter
    (fun (h : Shard.hart) ->
      match h.h_lease with
      | Some b ->
        if h.h_cpu.halted then
          add "shard-lease" "halted hart %d still holds a lease on id=%d"
            h.h_id b.id;
        if not (Tcache.is_alive tc b.id) then
          add "shard-lease" "hart %d leases dead block id=%d" h.h_id b.id
        else begin
          if Tcache.lease_count tc b.id < 1 then
            add "shard-lease"
              "hart %d's lease on id=%d is not counted by the tcache"
              h.h_id b.id;
          if not (h.h_cpu.pc >= b.paddr && h.h_cpu.pc < b.paddr + (4 * b.words))
          then
            add "shard-lease"
              "hart %d parked at 0x%x outside its leased block id=%d" h.h_id
              h.h_cpu.pc b.id
        end
      | None ->
        if (not h.h_cpu.halted) && block_of h.h_cpu.pc <> None then
          add "shard-lease"
            "hart %d parked at 0x%x inside a resident block without a lease"
            h.h_id h.h_cpu.pc)
    harts;
  (* conservation: the tcache's per-block lease counts are exactly the
     hart leases, block by block *)
  let hart_leases = Hashtbl.create 8 in
  List.iter
    (fun (h : Shard.hart) ->
      match h.h_lease with
      | Some b ->
        Hashtbl.replace hart_leases b.Tcache.id
          (1
          + Option.value ~default:0 (Hashtbl.find_opt hart_leases b.Tcache.id))
      | None -> ())
    harts;
  List.iter
    (fun (b : Tcache.block) ->
      let want = Option.value ~default:0 (Hashtbl.find_opt hart_leases b.id) in
      let got = Tcache.lease_count tc b.id in
      if got <> want then
        add "shard-lease" "block id=%d holds %d lease(s), harts account for %d"
          b.id got want)
    blocks;
  List.iter
    (fun id ->
      if not (Hashtbl.mem hart_leases id) then
        add "shard-lease" "leased id=%d is not held by any hart" id)
    (Tcache.leased_ids tc);

  (* -- per-hart cycle ledger ----------------------------------------- *)
  List.iter
    (fun (h : Shard.hart) ->
      if h.h_run < 0 || h.h_wait_fill < 0 || h.h_wait_mc < 0 then
        add "shard-ledger" "hart %d has a negative ledger entry (%d/%d/%d)"
          h.h_id h.h_run h.h_wait_fill h.h_wait_mc;
      let sum = h.h_run + h.h_wait_fill + h.h_wait_mc in
      if sum <> h.h_cpu.cycles then
        add "shard-ledger"
          "hart %d ledger run=%d + fill-wait=%d + mc-wait=%d = %d <> cycles=%d"
          h.h_id h.h_run h.h_wait_fill h.h_wait_mc sum h.h_cpu.cycles)
    harts;
  (* the aggregate statistics are the exact sums of the hart ledgers *)
  let sum get = List.fold_left (fun a h -> a + get h) 0 harts in
  let check_sum name stat get =
    let s = sum get in
    if stat <> s then
      add "shard-ledger" "stats.%s=%d but hart ledgers sum to %d" name stat s
  in
  check_sum "fills" c.stats.fills (fun (h : Shard.hart) -> h.h_fills);
  check_sum "fills_coalesced" c.stats.fills_coalesced (fun h -> h.h_joins);
  check_sum "fill_wait_cycles" c.stats.fill_wait_cycles (fun h -> h.h_wait_fill);
  check_sum "mc_wait_cycles" c.stats.mc_wait_cycles (fun h -> h.h_wait_mc);
  let makespan =
    List.fold_left (fun a (h : Shard.hart) -> max a h.h_cpu.cycles) 0 harts
  in
  if Shard.mc_free_at s > makespan then
    add "shard-ledger" "mc busy until %d, past every hart clock (max %d)"
      (Shard.mc_free_at s) makespan;

  (* -- per-hart policy attribution ------------------------------------ *)
  (let module P = (val c.policy : Softcache.Policy.S) in
   let touches = P.hart_touches () in
   List.iter
     (fun (hart, cnt) ->
       if hart < 0 || hart >= n then
         add "shard-policy" "policy '%s' recorded touches for bad hart %d"
           P.name hart;
       if cnt <= 0 then
         add "shard-policy" "policy '%s' records %d touches for hart %d"
           P.name cnt hart)
     touches;
   let total = List.fold_left (fun a (_, k) -> a + k) 0 touches in
   if total > c.stats.traps then
     add "shard-policy"
       "policy '%s' hart touches sum to %d, more than %d traps dispatched"
       P.name total c.stats.traps);

  (* plus the full per-controller audit of the shared cache *)
  List.rev !viols @ run c

let shards_exn s =
  match shards s with [] -> () | vs -> raise (Audit_failure vs)

(* ---- fleet-level invariants ---------------------------------------

   The per-controller sections above still apply to every session; on
   top of them the fleet MC keeps books that must balance:

   - the shared chunk cache respects its entry bound (and stays empty
     when dedup is off);
   - every demand attempt was served in exactly one way — its own
     frame, a piggyback ride, or a coalesced join — and the
     per-session counters sum to the MC's;
   - the shared link minted one message per dispatched frame (plus
     fault-injected duplicates) and none for piggybacks or joins;
   - isolation: no session holds (resident or staged) a chunk it never
     requested — the multi-tenant property a shared MC must not
     violate. *)

let fleet (f : Fleet.t) : violation list =
  let viols = ref [] in
  let add invariant fmt =
    Format.kasprintf
      (fun detail -> viols := { invariant; detail } :: !viols)
      fmt
  in
  let cfg = Fleet.config_of f in
  let entries = Fleet.cache_entries f in
  if cfg.Fleet.dedup then begin
    if entries > Fleet.cache_chunks then
      add "fleet-cache" "shared cache holds %d entries, bound %d" entries
        Fleet.cache_chunks
  end
  else if entries > 0 then
    add "fleet-cache" "dedup disabled yet shared cache holds %d entries"
      entries;
  let attempts = Fleet.attempts f
  and frames = Fleet.frames f
  and piggybacked = Fleet.piggybacked f
  and coalesced = Fleet.coalesced f in
  if attempts <> frames + piggybacked + coalesced then
    add "fleet-conserve"
      "attempts %d <> frames %d + piggybacked %d + coalesced %d" attempts
      frames piggybacked coalesced;
  let sessions = Fleet.sessions f in
  let sum get = Array.fold_left (fun a s -> a + get s) 0 sessions in
  let sf = sum Fleet.fetches in
  if sf <> attempts then
    add "fleet-conserve" "session fetches sum to %d, MC saw %d attempts" sf
      attempts;
  let sc = sum Fleet.session_coalesced in
  if sc <> coalesced then
    add "fleet-conserve" "session coalesced sum to %d, MC counted %d" sc
      coalesced;
  let msgs = Fleet.messages_delta f and dups = Fleet.duplicates_delta f in
  if msgs <> frames + dups then
    add "fleet-messages"
      "link minted %d messages, expected frames %d + duplicates %d" msgs
      frames dups;
  Array.iter
    (fun s ->
      let c = Fleet.controller s in
      let id = Fleet.session_id s in
      let img = Fleet.image s in
      (* under mixed workloads the request log alone can't catch
         cross-client leakage (two clients may legitimately request the
         same vaddr); every cached chunk must also decode from *this*
         client's text segment *)
      List.iter
        (fun (b : Tcache.block) ->
          if not (Fleet.requested s b.vaddr) then
            add "fleet-isolation"
              "client %d resident chunk 0x%x was never requested by it" id
              b.vaddr;
          if not (Isa.Image.contains_code img b.vaddr) then
            add "fleet-isolation"
              "client %d resident chunk 0x%x is outside its workload %s" id
              b.vaddr img.Isa.Image.name)
        (Tcache.blocks c.tc);
      Hashtbl.iter
        (fun v (_ : Controller.staged) ->
          if not (Fleet.requested s v) then
            add "fleet-isolation"
              "client %d staged chunk 0x%x was never requested by it" id v;
          if not (Isa.Image.contains_code img v) then
            add "fleet-isolation"
              "client %d staged chunk 0x%x is outside its workload %s" id v
              img.Isa.Image.name)
        c.staging)
    sessions;
  (* every session's own tcache invariants, prefixed per client; a
     multi-hart session gets the full shard audit (which itself ends in
     the per-controller [run]) *)
  Array.iter
    (fun s ->
      let id = Fleet.session_id s in
      let vs =
        match Fleet.shard s with
        | Some sh -> shards sh
        | None -> run (Fleet.controller s)
      in
      List.iter
        (fun v ->
          add "fleet-session" "client %d: [%s] %s" id v.invariant v.detail)
        vs)
    sessions;
  List.rev !viols

