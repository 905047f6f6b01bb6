(* Host-speed kernel, run by main.exe in a process of its own between
   cells. It prints the CPU time, in ns, of a fixed kernel: random
   read-modify-writes over a 2 MB array, a working set that lives in
   the last-level cache, which is where co-tenants of a shared host
   slow the simulator. The array is swept once first so the kernel
   starts warm; the best of five timings is printed. The kernel shares
   no code or heap with the simulator, so no change to the simulator
   moves it. *)

let cpu_ns () = int_of_float (Sys.time () *. 1e9)
let words = 1 lsl 18
let mem = Bigarray.Array1.create Bigarray.int Bigarray.c_layout words

let kernel () =
  for j = 0 to words - 1 do
    Bigarray.Array1.unsafe_set mem j (Bigarray.Array1.unsafe_get mem j + 1)
  done;
  let t0 = cpu_ns () in
  let x = ref 12345 in
  for i = 0 to 499_999 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let j = !x land (words - 1) in
    Bigarray.Array1.unsafe_set mem j (Bigarray.Array1.unsafe_get mem j + i)
  done;
  cpu_ns () - t0

let () =
  Bigarray.Array1.fill mem 0;
  let best = ref max_int in
  for _ = 1 to 5 do
    best := min !best (kernel ())
  done;
  Printf.printf "%d\n" !best
