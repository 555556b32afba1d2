type t = {
  hit_cycles : float array;
  memory_cycles : float;
  clock_hz : float;
}

let ultrasparc =
  { hit_cycles = [| 1.0; 6.0 |]; memory_cycles = 50.0; clock_hz = 143.0e6 }

let alpha21164 =
  { hit_cycles = [| 1.0; 5.0; 20.0 |]; memory_cycles = 80.0; clock_hz = 300.0e6 }

let cycles_of_stats t stats_list =
  let stats = Array.of_list stats_list in
  let n = Array.length stats in
  if n = 0 then invalid_arg "Cost_model.cycles_of_stats: no levels";
  if Array.length t.hit_cycles < n then
    invalid_arg "Cost_model.cycles_of_stats: model has fewer levels than hierarchy";
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    (* Every access that reached level i pays level i's hit latency;
       the portion that missed pays deeper levels via their own access
       counts, and the last level's misses pay memory latency. *)
    total := !total +. (float_of_int stats.(i).Stats.accesses *. t.hit_cycles.(i))
  done;
  total := !total +. (float_of_int stats.(n - 1).Stats.misses *. t.memory_cycles);
  !total

let breakdown_of_stats t stats_list =
  let stats = Array.of_list stats_list in
  let n = Array.length stats in
  if n = 0 then invalid_arg "Cost_model.breakdown_of_stats: no levels";
  if Array.length t.hit_cycles < n then
    invalid_arg "Cost_model.breakdown_of_stats: model has fewer levels than hierarchy";
  let per_level =
    List.init n (fun i ->
        ( Printf.sprintf "L%d" (i + 1),
          float_of_int stats.(i).Stats.accesses *. t.hit_cycles.(i) ))
  in
  per_level
  @ [ ("memory", float_of_int stats.(n - 1).Stats.misses *. t.memory_cycles) ]

let seconds_of_stats t stats_list = cycles_of_stats t stats_list /. t.clock_hz

let mflops_of_stats t ~flops stats_list =
  let s = seconds_of_stats t stats_list in
  if s <= 0.0 then 0.0 else float_of_int flops /. s /. 1.0e6

let improvement ~orig ~opt =
  if orig = 0.0 then 0.0 else 100.0 *. (orig -. opt) /. orig
