type t = {
  hit_cycles : float array;
  memory_cycles : float;
  clock_hz : float;
}

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

let cycles_of_stats t stats_list =
  List.fold_left (fun total (_, cycles) -> total +. cycles) 0.0
    (breakdown_of_stats t stats_list)

let mflops_of_stats t ~flops stats_list =
  let s = cycles_of_stats t stats_list /. t.clock_hz in
  if s <= 0.0 then 0.0 else float_of_int flops /. s /. 1.0e6

let improvement ~orig ~opt =
  if orig = 0.0 then 0.0 else 100.0 *. (orig -. opt) /. orig
