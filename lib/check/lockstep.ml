(* Lockstep differential oracle.

   Two ways to prove a SoftCached execution computes what it should:

   - [pair] drives two softcached executions of the *same* program one
     instruction at a time — side a carries the feature under test,
     side b is the reference — and compares the full architectural
     state after every step, outputs and memory at the end, and (for
     the axes that must be counter-identical) statistics and
     interconnect counters.

   - [modes] runs the program natively once, recording its data
     accesses, then replays every named configuration against that
     recording inside the CPU's load/store hooks, aborting at the
     first divergent access. Loads and stores are the right
     observables across configurations: data addresses are
     architecturally identical (same data segment, same initial sp),
     while fetch addresses and return-address *values* legitimately
     differ — cached code runs out of the tcache and returns land on
     landing pads. Controller bookkeeping writes go straight to
     memory, bypassing the CPU hooks, so they never pollute the cached
     stream. Outputs are compared at the end, then the final data
     segments of all configurations against each other. *)

open Softcache

type event = Load of int | Store of int | Output of int

type verdict =
  | Equivalent of { steps : int }
  | Diverged of { step : int; detail : string }
  | Out_of_fuel of { steps : int }
  | Native_out_of_fuel
  | Unavailable of { vaddr : int; attempts : int; steps : int }

let ok = function Equivalent _ | Out_of_fuel _ -> true | _ -> false

let pp_event ppf = function
  | Load a -> Format.fprintf ppf "load 0x%x" a
  | Store a -> Format.fprintf ppf "store 0x%x" a
  | Output v -> Format.fprintf ppf "out %d" v

let pp_verdict ppf = function
  | Equivalent { steps } -> Format.fprintf ppf "equivalent (%d steps)" steps
  | Diverged { step; detail } ->
    Format.fprintf ppf "diverged at step %d: %s" step detail
  | Out_of_fuel { steps } ->
    Format.fprintf ppf "out of fuel after %d matching steps" steps
  | Native_out_of_fuel -> Format.pp_print_string ppf "native out of fuel"
  | Unavailable { vaddr; attempts; steps } ->
    Format.fprintf ppf
      "chunk 0x%x unavailable after %d attempts (%d steps matched)" vaddr
      attempts steps

(* ------------------------------------------------------------------ *)
(* Step-wise: two softcached executions in instruction lockstep *)

let state_mismatch ~labels ~compare_cycles (a : Controller.t)
    (b : Controller.t) =
  let la, lb = labels in
  if a.cpu.pc <> b.cpu.pc then
    Some (Printf.sprintf "pc 0x%x (%s) vs 0x%x (%s)" a.cpu.pc la b.cpu.pc lb)
  else if a.cpu.retired <> b.cpu.retired then
    Some (Printf.sprintf "retired %d vs %d" a.cpu.retired b.cpu.retired)
  else if compare_cycles && a.cpu.cycles <> b.cpu.cycles then
    Some (Printf.sprintf "cycles %d vs %d" a.cpu.cycles b.cpu.cycles)
  else if a.cpu.halted <> b.cpu.halted then
    Some (Printf.sprintf "halted %b vs %b" a.cpu.halted b.cpu.halted)
  else if a.cpu.regs <> b.cpu.regs then begin
    let detail = ref "registers differ" in
    Array.iteri
      (fun i v ->
        if v <> b.cpu.regs.(i) && !detail = "registers differ" then
          detail :=
            Printf.sprintf "r%d = %d (%s) vs %d (%s)" i v la b.cpu.regs.(i)
              lb)
      a.cpu.regs;
    Some !detail
  end
  else None

(* Drive the pair one instruction at a time. [ops] are applied to both
   sides at evenly spaced fuel slices and state is re-compared right
   after, so mid-run patches, evictions and flushes land at identical
   instruction boundaries. [step_a] lets side a advance through a
   different front end over the same controller (the shard layer's
   scheduler loop). *)
let drive_pair ?step_a ~fuel ~ops ~labels ~compare_cycles
    (ca : Controller.t) (cb : Controller.t) : verdict =
  let step_a =
    match step_a with
    | Some f -> f
    | None -> fun () -> Controller.run ~fuel:1 ca
  in
  let steps = ref 0 in
  let slice = max 1 (fuel / (List.length ops + 1)) in
  let exception Divergence of string in
  let check () =
    match state_mismatch ~labels ~compare_cycles ca cb with
    | Some d -> raise (Divergence d)
    | None -> ()
  in
  let outcome = function
    | Machine.Cpu.Halted -> "halted"
    | Machine.Cpu.Out_of_fuel -> "running"
  in
  let rec drive budget ops =
    if ca.cpu.halted && cb.cpu.halted then `Halted
    else if budget <= 0 then
      match ops with
      | op :: rest ->
        op ca;
        op cb;
        check ();
        drive slice rest
      | [] -> `Out_of_fuel
    else begin
      (* run returns immediately once halted, so over-stepping is safe *)
      let oa = step_a () in
      let ob = Controller.run ~fuel:1 cb in
      incr steps;
      if oa <> ob then
        raise
          (Divergence
             (Printf.sprintf "outcome %s vs %s" (outcome oa) (outcome ob)));
      check ();
      drive (budget - 1) ops
    end
  in
  match drive slice ops with
  | exception Divergence detail -> Diverged { step = !steps; detail }
  | exception Controller.Chunk_unavailable { vaddr; attempts } ->
    Unavailable { vaddr; attempts; steps = !steps }
  | `Out_of_fuel -> Out_of_fuel { steps = !steps }
  | `Halted ->
    let sz = Machine.Memory.size ca.cpu.mem in
    if Machine.Cpu.outputs ca.cpu <> Machine.Cpu.outputs cb.cpu then
      Diverged { step = !steps; detail = "output streams differ" }
    else if
      Machine.Memory.hash ca.cpu.mem ~lo:0 ~hi:sz
      <> Machine.Memory.hash cb.cpu.mem ~lo:0 ~hi:sz
    then Diverged { step = !steps; detail = "final memory differs" }
    else Equivalent { steps = !steps }

type axis = Engines | Prefetch | Trace | Fleet | Shards

let net_counters (c : Controller.t) =
  let n = c.cfg.Config.net in
  ( Netmodel.messages n,
    Netmodel.payload_bytes n,
    Netmodel.total_bytes n,
    Netmodel.drops n,
    Netmodel.corruptions n,
    Netmodel.duplicates n,
    Netmodel.delay_spikes n )

(* The fill state machine's own bookkeeping: the solo path bypasses it,
   so a 1-hart shard session legitimately differs from solo here. *)
let blank_fills (s : Stats.t) =
  {
    s with
    Stats.fills = 0;
    fills_coalesced = 0;
    fill_wait_cycles = 0;
    mc_wait_cycles = 0;
  }

let pair ?cost ?(fuel = 2_000_000) ?(ops = []) ?(audit = false) axis mk_cfg
    img : verdict =
  (* every side gets its own Config (and thus its own Netmodel state) so
     shared transport RNG/counters cannot desynchronise the pair *)
  let create f = Controller.create ?cost (f (mk_cfg ())) img in
  let b =
    create (fun c ->
        match axis with
        | Engines -> { c with Config.engine = Machine.Cpu.Interpretive }
        | Prefetch -> { c with Config.prefetch_degree = 0 }
        | Trace | Fleet | Shards -> c)
  in
  (* side a, its labels, an optional stepping front end, and the checks
     only this axis runs after the shared epilogue *)
  let a, labels, step_a, final_checks =
    match axis with
    | Engines ->
      ( create (fun c -> { c with Config.engine = Machine.Cpu.Decoded }),
        ("decoded", "interpretive"),
        None,
        [] )
    | Prefetch -> (create Fun.id, ("prefetch", "baseline"), None, [])
    | Trace ->
      let a = create Fun.id in
      let tr = Trace.create () in
      Controller.attach_tracer a tr;
      let conserved () =
        if Trace.conserved tr ~total:a.cpu.cycles then None
        else
          Some
            (Printf.sprintf
               "attribution does not conserve: categories sum to %d, \
                cpu.cycles = %d"
               (Trace.summary tr).Trace.s_total a.cpu.cycles)
      in
      (a, ("traced", "untraced"), None, [ conserved ])
    | Fleet ->
      let fcfg = mk_cfg () in
      let fl =
        Fleet.create ?cost
          ~config:(Fleet.config ~clients:1 ())
          ~net:fcfg.Config.net
          (fun _ -> fcfg)
          [| img |]
      in
      (Fleet.controller (Fleet.sessions fl).(0), ("fleet", "solo"), None, [])
    | Shards ->
      let a = create (fun c -> { c with Config.harts = 1 }) in
      let sh = Shard.attach a in
      let h = Shard.hart sh 0 in
      let no_waits () =
        if h.Shard.h_wait_fill = 0 && h.h_wait_mc = 0 && h.h_joins = 0 then
          None
        else
          Some
            (Printf.sprintf
               "lone hart was charged waits: fill=%d mc=%d joins=%d"
               h.h_wait_fill h.h_wait_mc h.h_joins)
      in
      let audited () =
        match Audit.shards sh with
        | [] -> None
        | v :: _ ->
          Some (Format.asprintf "shard audit: %a" Audit.pp_violation v)
      in
      ( a,
        ("sharded", "solo"),
        Some (fun () -> Shard.run ~fuel:1 sh),
        [ no_waits; audited ] )
  in
  if audit then ignore (Audit.install a);
  let verdict =
    drive_pair ?step_a ~fuel ~ops ~labels
      ~compare_cycles:(axis <> Prefetch) a b
  in
  match (axis, verdict) with
  | (Trace | Fleet | Shards), (Equivalent { steps } | Out_of_fuel { steps })
    -> (
    (* strict generalisations must be counter-identical too *)
    let blank = if axis = Shards then blank_fills else Fun.id in
    let la, lb = labels in
    let stats () =
      if blank a.stats = blank b.stats then None
      else
        Some
          (Format.asprintf "stats differ: %a (%s) vs %a (%s)" Stats.pp a.stats
             la Stats.pp b.stats lb)
    in
    let net () =
      if net_counters a = net_counters b then None
      else Some "interconnect counters differ"
    in
    match List.find_map (fun f -> f ()) (stats :: net :: final_checks) with
    | None -> verdict
    | Some detail -> Diverged { step = steps; detail })
  | _ -> verdict

(* ------------------------------------------------------------------ *)
(* Observational: every mode against one native recording *)

(* Growable int array; events are tagged as addr*2 + (0=load / 1=store). *)
module Vec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let bigger = Array.make (2 * v.n) 0 in
      Array.blit v.a 0 bigger 0 v.n;
      v.a <- bigger
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1
end

let untag x = if x land 1 = 0 then Load (x lsr 1) else Store (x lsr 1)

(* Run [ctrl] in slices, applying one mid-run op at each boundary. *)
let drive_sliced ~fuel ~ops ctrl =
  let slice = max 1 (fuel / (List.length ops + 1)) in
  let rec go left = function
    | op :: rest -> (
      match Controller.run ~fuel:slice ctrl with
      | Machine.Cpu.Halted -> Machine.Cpu.Halted
      | Machine.Cpu.Out_of_fuel ->
        op ctrl;
        go (left - slice) rest)
    | [] -> Controller.run ~fuel:(max slice left) ctrl
  in
  go fuel ops

let modes ?cost ?(fuel = 2_000_000) ?(ops = []) ?(audit = false) cfgs img :
    verdict =
  if cfgs = [] then invalid_arg "Lockstep.modes: no configurations";
  let ncpu = Machine.Cpu.of_image ?cost img in
  let trace = Vec.create () in
  ncpu.on_load <- Some (fun a -> Vec.push trace (a lsl 1));
  ncpu.on_store <- Some (fun a -> Vec.push trace ((a lsl 1) lor 1));
  match Machine.Cpu.run ~fuel ncpu with
  | Machine.Cpu.Out_of_fuel -> Native_out_of_fuel
  | Machine.Cpu.Halted ->
    let native_outs = Machine.Cpu.outputs ncpu in
    let events = trace.n + List.length native_outs in
    let data_lo = img.Isa.Image.data_base in
    let data_hi = data_lo + Bytes.length img.Isa.Image.data in
    let diverged name step native cached =
      let pp_opt ppf = function
        | Some e -> pp_event ppf e
        | None -> Format.pp_print_string ppf "(stream ended)"
      in
      Diverged
        {
          step;
          detail =
            Format.asprintf "mode '%s' vs native: native %a, cached %a" name
              pp_opt native pp_opt cached;
        }
    in
    (* one mode against the recording: its final data-segment hash, or
       the verdict that stops the whole check *)
    let replay (name, mk_cfg) =
      let ctrl = Controller.create ?cost (mk_cfg ()) img in
      if audit then ignore (Audit.install ctrl);
      let idx = ref 0 in
      let exception Mismatch of event option * event in
      let check tag ev =
        if !idx >= trace.n then raise (Mismatch (None, ev))
        else if trace.a.(!idx) <> tag then
          raise (Mismatch (Some (untag trace.a.(!idx)), ev))
        else incr idx
      in
      ctrl.cpu.on_load <- Some (fun a -> check (a lsl 1) (Load a));
      ctrl.cpu.on_store <- Some (fun a -> check ((a lsl 1) lor 1) (Store a));
      match drive_sliced ~fuel ~ops ctrl with
      | exception Mismatch (n, c) -> Error (diverged name !idx n (Some c))
      | exception Controller.Chunk_unavailable { vaddr; attempts } ->
        Error (Unavailable { vaddr; attempts; steps = !idx })
      | Machine.Cpu.Out_of_fuel -> Error (Out_of_fuel { steps = !idx })
      | Machine.Cpu.Halted when !idx < trace.n ->
        Error (diverged name !idx (Some (untag trace.a.(!idx))) None)
      | Machine.Cpu.Halted ->
        let rec cmp i ns cs =
          match (ns, cs) with
          | [], [] ->
            Ok (name, Machine.Memory.hash ctrl.cpu.mem ~lo:data_lo ~hi:data_hi)
          | n :: ns, c :: cs when n = c -> cmp (i + 1) ns cs
          | ns, cs ->
            let hd = function x :: _ -> Some (Output x) | [] -> None in
            Error (diverged name (!idx + i) (hd ns) (hd cs))
        in
        cmp 0 native_outs (Machine.Cpu.outputs ctrl.cpu)
    in
    let rec replay_all acc = function
      | [] -> Ok (List.rev acc)
      | m :: rest -> (
        match replay m with
        | Ok r -> replay_all (r :: acc) rest
        | Error v -> Error v)
    in
    match replay_all [] cfgs with
    | Error v -> v
    | Ok [] -> assert false
    | Ok ((base, h0) :: rest) -> (
      (* every mode's outputs already equal native's, so only the data
         segment can still disagree *)
      match List.find_opt (fun (_, h) -> h <> h0) rest with
      | Some (name, _) ->
        Diverged
          {
            step = events;
            detail =
              Printf.sprintf
                "mode '%s' disagrees with '%s': final data segment differs"
                name base;
          }
      | None -> Equivalent { steps = events })
