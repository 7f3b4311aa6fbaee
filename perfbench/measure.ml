(* Clocks, process resource readings, the mean and the median. *)

let now = Unix.gettimeofday

(* Module initialisation of the executable is the closest the program
   can read to its own start: every library initialiser has run, no
   benchmark work has. *)
let process_start = now ()

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* VmHWM: the kernel's peak resident set size of this process. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    let line = input_line ic in
    if String.starts_with ~prefix:"VmHWM:" line then
      Scanf.sscanf line "VmHWM: %f kB" (fun kb -> kb /. 1024.0)
    else scan ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Restart VmHWM from the current resident set (Linux >= 4.0), so the
   next reading is the peak of what runs in between.  Where the kernel
   refuses, readings stay process-lifetime peaks: an upper bound. *)
let reset_peak_rss () =
  try
    let oc = open_out "/proc/self/clear_refs" in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc "5")
  with Sys_error _ -> ()

let mean xs =
  if xs = [] then invalid_arg "Measure.mean: empty";
  List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let median xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Measure.median: empty";
  Array.sort Float.compare a;
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
