(* Eviction and flush: unlinking dead blocks (reverting their incoming
   pointers), scrubbing live landing-pad addresses off the stack into
   persistent return stubs, and keeping the replacement policy's view
   of residency exact — every block that leaves the tcache flows
   through [note_evicted] with the reason it died. *)

open Cc_state

(* One bookkeeping stop for every block that leaves the tcache: the
   policy drops it from its resident view, the per-reason counter and
   the victim-age histogram advance, and the tracer records why. The
   tcache itself has already deregistered the block by the time we get
   here (allocation, invalidation and flush all remove first), so
   policy view == tcache residency holds again the moment this
   returns — the equality [Check.Audit] asserts. *)
let note_evicted t ~(reason : Policy.reason) (b : Tcache.block) =
  let module P = (val t.policy : Policy.S) in
  P.on_evict reason b;
  (match reason with
  | Policy.Victim -> t.stats.evicted_victim <- t.stats.evicted_victim + 1
  | Policy.Collateral ->
    t.stats.evicted_collateral <- t.stats.evicted_collateral + 1
  | Policy.Stub_growth ->
    t.stats.evicted_stub_growth <- t.stats.evicted_stub_growth + 1
  | Policy.Invalidated ->
    t.stats.evicted_invalidated <- t.stats.evicted_invalidated + 1
  | Policy.Flushed -> t.stats.evicted_flushed <- t.stats.evicted_flushed + 1);
  (match Hashtbl.find_opt t.install_cycle b.id with
  | Some at ->
    Hashtbl.remove t.install_cycle b.id;
    Stats.record_victim_age t.stats ~age:(t.cpu.cycles - at)
  | None -> ());
  if tracing t then
    trace t
      (Trace.Cc_evict
         {
           chunk = b.vaddr;
           base = b.paddr;
           bytes = 4 * b.words;
           incoming = List.length b.incoming;
           reason = Policy.reason_name reason;
         })

(* Setting SOFTCACHE_DEBUG makes every eviction scan for return
   addresses still pointing into the freed blocks (read once, at
   start-up). *)
let debug_stale = Sys.getenv_opt "SOFTCACHE_DEBUG" <> None

(* Every CPU this controller is responsible for: the solo CPU, or all
   harts of a multi-hart run. Stack scrubs, parked-pc redirects and
   flush fix-ups must cover each one — every hart's private stack may
   hold landing-pad addresses into the shared tcache. *)
let cpus t =
  if Array.length t.harts = 0 then [ t.cpu ] else Array.to_list t.harts

(* Allocate (or reuse) the persistent return stub for a return target.
   Routed to the return vaddr's home shard so persistent growth stays
   within one arena. May evict blocks to grow the stub area;
   [on_evicted] handles them. *)
let rec persistent_ret_stub t ~on_evicted ret_vaddr =
  match Hashtbl.find_opt t.ret_stubs ret_vaddr with
  | Some (paddr, _) -> paddr
  | None -> (
    match
      Tcache.alloc_persistent ~shard:(Tcache.home_shard t.tc ret_vaddr) t.tc
        ~words:1
    with
    | Error `Too_large -> raise Tcache_too_small
    | Ok (paddr, victims) ->
      on_evicted victims;
      let k =
        add_stub t (fun _k ->
            Stub.Ret_stub { site_paddr = paddr; target = ret_vaddr })
      in
      write_word t paddr (enc (Isa.Instr.Trap k));
      Hashtbl.replace t.ret_stubs ret_vaddr (paddr, k);
      t.stats.ret_stubs <- t.stats.ret_stubs + 1;
      paddr)

(* Redirect any live landing-pad address held in [ra] or on the stack
   into a persistent return stub. [padtbl] maps pad paddr -> return
   vaddr for the pads that just died. *)
and scrub_stack t ~on_evicted padtbl =
  let fixup v =
    match Hashtbl.find_opt padtbl v with
    | Some ret_vaddr -> Some (persistent_ret_stub t ~on_evicted ret_vaddr)
    | None -> None
  in
  let scanned = ref 0 in
  (* every hart's ra and private stack can hold a doomed landing pad;
     stack words live in the hart's own memory, so the fixed-up word is
     written back there (no mirroring — stacks are private data) *)
  List.iter
    (fun (cpu : Machine.Cpu.t) ->
      (match fixup (Machine.Cpu.reg cpu Isa.Reg.ra) with
      | Some p -> Machine.Cpu.set_reg cpu Isa.Reg.ra p
      | None -> ());
      let sp = Machine.Cpu.reg cpu Isa.Reg.sp in
      let scan_range lo hi =
        let addr = ref (lo land lnot 3) in
        while !addr + 4 <= hi do
          incr scanned;
          (match fixup (Machine.Memory.read32 cpu.mem !addr) with
          | Some p -> Machine.Memory.write32 cpu.mem !addr p
          | None -> ());
          addr := !addr + 4
        done
      in
      scan_range (max 0 sp) t.stack_top;
      (* "any non-stack storage (e.g. thread control blocks) must be
         registered with the runtime system" *)
      List.iter (fun (lo, hi) -> scan_range lo hi) t.ra_regions)
    (cpus t);
  t.stats.scrubbed_words <- t.stats.scrubbed_words + !scanned;
  charge t Trace.Scrub (Config.scrub_cycles_per_word * !scanned)

and debug_check_stale t victims =
  (* [debug_stale]: detect return addresses pointing into freed blocks *)
  let in_victim v =
    List.exists
      (fun (b : Tcache.block) ->
        v >= b.paddr && v < b.paddr + (4 * b.words))
      victims
  in
  List.iter
    (fun (cpu : Machine.Cpu.t) ->
      let ra = Machine.Cpu.reg cpu Isa.Reg.ra in
      if in_victim ra then
        Printf.eprintf "STALE ra=0x%x after scrub! pc=0x%x\n%!" ra cpu.pc;
      let sp = max 0 (Machine.Cpu.reg cpu Isa.Reg.sp land lnot 3) in
      let addr = ref sp in
      while !addr + 4 <= t.stack_top do
        let v = Machine.Memory.read32 cpu.mem !addr in
        if in_victim v then
          Printf.eprintf
            "STALE stack[0x%x]=0x%x after scrub! pc=0x%x sp=0x%x\n%!" !addr v
            cpu.pc sp;
        addr := !addr + 4
      done)
    (cpus t)

and revert_incoming t victims =
  (* unlink: revert every recorded incoming pointer whose own block
     still exists — the stub bytes are restored before the victim's
     memory is reclaimed, so no patched branch ever dangles. A record
     whose source already died is skipped: that memory may now hold
     another block, and block ids are never reused, so a dead source
     id never passes for a live one. *)
  List.iter
    (fun (b : Tcache.block) ->
      List.iter
        (fun (inc : Tcache.incoming) ->
          if inc.from_block = -1 || Tcache.is_alive t.tc inc.from_block
          then begin
            write_word t inc.site_paddr inc.revert_word;
            t.stats.reverts <- t.stats.reverts + 1;
            charge t Trace.Patch Config.patch_cycles;
            if tracing t then
              trace t
                (Trace.Cc_unpatch { site = inc.site_paddr; target = b.paddr })
          end)
        b.incoming)
    victims

(* [reason_of] labels each victim for the policy, the per-reason stats
   and the trace; nested evictions caused by the scrub growing the
   persistent stub area are always [Stub_growth] regardless of what
   started the cascade. *)
and process_evicted t ~reason_of victims =
  if victims <> [] then begin
    let n = List.length victims in
    Log.debug (fun m ->
        m "evict %d block(s): %s" n
          (String.concat ","
             (List.map
                (fun (b : Tcache.block) -> Printf.sprintf "v=0x%x" b.vaddr)
                victims)));
    t.stats.evicted_blocks <- t.stats.evicted_blocks + n;
    Stats.record_eviction t.stats ~cycle:t.cpu.cycles ~blocks:n;
    List.iter (fun b -> note_evicted t ~reason:(reason_of b) b) victims;
    revert_incoming t victims;
    (* recycle the victims' stub entries right away: once their
       incoming pointers are reverted nothing references them, and the
       scrubbing below can itself evict (persistent stub growth) —
       leaving them allocated across that nested eviction would expose
       a transiently inconsistent stub table to the event hook *)
    free_block_stubs t victims;
    let on_stub_growth =
      process_evicted t ~reason_of:(fun _ -> Policy.Stub_growth)
    in
    (* landing pads that may be live in return addresses *)
    if List.exists (fun (b : Tcache.block) -> b.pads <> []) victims then begin
      let padtbl = Hashtbl.create 16 in
      List.iter
        (fun (b : Tcache.block) ->
          List.iter (fun (p, rv) -> Hashtbl.replace padtbl p rv) b.pads)
        victims;
      scrub_stack t ~on_evicted:on_stub_growth padtbl
    end;
    (* if a CPU is parked inside a dead block (invalidate between runs,
       or a suspended hart whose lease a flush/invalidate overrode),
       park it on a persistent stub for its resume address *)
    let cpus = cpus t in
    List.iter
      (fun (b : Tcache.block) ->
        List.iter
          (fun (cpu : Machine.Cpu.t) ->
            let pc = cpu.pc in
            if pc >= b.paddr && pc < b.paddr + (4 * b.words) then
              let rv = b.resume.((pc - b.paddr) asr 2) in
              cpu.pc <- persistent_ret_stub t ~on_evicted:on_stub_growth rv)
          cpus)
      victims;
    if debug_stale then debug_check_stale t victims;
    emit_event t (Evicted n)
  end

(* Allocate (or reuse) the persistent PLT slot for a function entry.
   Call sites in function-granularity mode jump here instead of at the
   callee directly; the slot holds [Trap k] while the function is
   absent and a direct [Jmp] while it is resident. Same growth
   discipline as return stubs: may evict blocks, [on_evicted] handles
   them. *)
let plt_slot t ~on_evicted fn_vaddr =
  match Hashtbl.find_opt t.plt fn_vaddr with
  | Some (paddr, _) -> paddr
  | None -> (
    match
      Tcache.alloc_persistent ~shard:(Tcache.home_shard t.tc fn_vaddr) t.tc
        ~words:1
    with
    | Error `Too_large -> raise Tcache_too_small
    | Ok (paddr, victims) ->
      on_evicted victims;
      let k =
        add_stub t (fun _k ->
            Stub.Plt { slot_paddr = paddr; target = fn_vaddr })
      in
      write_word t paddr (enc (Isa.Instr.Trap k));
      Hashtbl.replace t.plt fn_vaddr (paddr, k);
      t.stats.plt_slots <- t.stats.plt_slots + 1;
      paddr)

let do_flush t =
  (* collect live pad references before tearing everything down;
     pinned blocks survive, so their pads stay valid *)
  let padtbl = Hashtbl.create 64 in
  List.iter
    (fun (b : Tcache.block) ->
      if not (Tcache.is_pinned t.tc b.id) then
        List.iter (fun (p, rv) -> Hashtbl.replace padtbl p rv) b.pads)
    (Tcache.blocks t.tc);
  (* per-CPU pre-flush captures: ra reference, parked-pc resume vaddr
     (a flush overrides any read lease a suspended hart holds — the
     writer takes every arena exclusively and the parked reader is
     redirected through its resume address; persistent return stubs
     survive the flush, so a pc parked on one needs no fixing), and
     the stack slots holding doomed landing pads *)
  let scanned = ref 0 in
  let captures =
    List.map
      (fun (cpu : Machine.Cpu.t) ->
        let ra_ref =
          Hashtbl.find_opt padtbl (Machine.Cpu.reg cpu Isa.Reg.ra)
        in
        let pc_resume =
          match Tcache.block_at t.tc cpu.pc with
          | Some b -> Some b.resume.((cpu.pc - b.paddr) asr 2)
          | None -> None
        in
        let stack_refs = ref [] in
        let sp = max 0 (Machine.Cpu.reg cpu Isa.Reg.sp land lnot 3) in
        let scan_range lo hi =
          let addr = ref (lo land lnot 3) in
          while !addr + 4 <= hi do
            incr scanned;
            (match
               Hashtbl.find_opt padtbl (Machine.Memory.read32 cpu.mem !addr)
             with
            | Some rv -> stack_refs := (!addr, rv) :: !stack_refs
            | None -> ());
            addr := !addr + 4
          done
        in
        scan_range sp t.stack_top;
        List.iter (fun (lo, hi) -> scan_range lo hi) t.ra_regions;
        (cpu, ra_ref, pc_resume, !stack_refs))
      (cpus t)
  in
  t.stats.scrubbed_words <- t.stats.scrubbed_words + !scanned;
  charge t Trace.Scrub (Config.scrub_cycles_per_word * !scanned);
  Log.debug (fun m ->
      m "flush: %d resident blocks, pc=0x%x" (Tcache.resident_blocks t.tc)
        t.cpu.pc);
  let former = Tcache.reset t.tc in
  (* pinned survivors may have patched exits into flushed blocks *)
  List.iter (fun b -> note_evicted t ~reason:Policy.Flushed b) former;
  let module P = (val t.policy : Policy.S) in
  P.on_flush ();
  revert_incoming t former;
  free_block_stubs t former;
  t.stats.evicted_blocks <- t.stats.evicted_blocks + List.length former;
  if former <> [] then
    Stats.record_eviction t.stats ~cycle:t.cpu.cycles
      ~blocks:(List.length former);
  t.stats.flushes <- t.stats.flushes + 1;
  trace t (Trace.Cc_flush { chunks = List.length former });
  (* persistent return stubs survive the flush, but any that had been
     specialised into direct jumps must trap again *)
  Hashtbl.iter
    (fun _rv (paddr, k) -> write_word t paddr (enc (Isa.Instr.Trap k)))
    t.ret_stubs;
  (* PLT slots follow the same discipline: persistent, but any slot
     specialised to a flushed function must trap again (slots aimed at
     pinned survivors re-specialise lazily on their next call) *)
  Hashtbl.iter
    (fun _fv (paddr, k) -> write_word t paddr (enc (Isa.Instr.Trap k)))
    t.plt;
  let no_evictions victims = assert (victims = []) in
  List.iter
    (fun ((cpu : Machine.Cpu.t), ra_ref, pc_resume, stack_refs) ->
      (match ra_ref with
      | Some rv ->
        Machine.Cpu.set_reg cpu Isa.Reg.ra
          (persistent_ret_stub t ~on_evicted:no_evictions rv)
      | None -> ());
      List.iter
        (fun (a, rv) ->
          Machine.Memory.write32 cpu.mem a
            (persistent_ret_stub t ~on_evicted:no_evictions rv))
        stack_refs;
      match pc_resume with
      | Some rv ->
        cpu.pc <- persistent_ret_stub t ~on_evicted:no_evictions rv
      | None -> ())
    captures;
  emit_event t Flushed
