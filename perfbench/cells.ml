(* The three workloads: the cells each one times, and the held-out cells
   a seed draws.

   Every workload times a fixed list of sizes taken from the figures it
   reproduces, chosen so that one pass over its cells takes about six
   seconds.  Every seed times those committed sizes, so that a seed does
   not change how much work a run measures: drawn sizes swung a pass's
   cost by more than the host's noise (a fused EXPL cell costs n^2, the
   slowest kernels n^3; TSS picks 1-row tiles for odd n, ten times slower
   to simulate).  A seed orders the timed cells (see [Bench.order]), and
   a held-out seed, any seed but [committed_seed], also draws each size
   uniformly from a window [anchor, anchor + width) inside the figure's
   range for the untimed cells of [held_out], which the benchmark checks
   outside every timed region.  GROUPPAD's cost does not depend on the
   problem size, so the GROUPPAD sweep draws from the whole stride
   between the bench harness's sizes; kernel sizes vary by a
   thirty-second; figure 13 and the tile comparison are drawn at one n in
   [100, 108), the low end of both figures' range. *)

module E = Mlc_engine
module K = Mlc_kernels
module L = Locality
module Obs = Mlc_obs.Obs

let committed_seed = 0

type cell =
  | Sim of E.Job.spec
  | Compile of { name : string; n : int option }
      (** [Compiler.optimize] with the default passes on a Table 1
          kernel; [n = None] is the registry's default size. *)

let key = function
  | Sim spec -> E.Job.canonical spec
  | Compile { name; n } ->
      Printf.sprintf "compile(%s%s)" (String.lowercase_ascii name)
        (match n with None -> "" | Some n -> Printf.sprintf ",n=%d" n)

let label = function
  | Sim spec -> E.Job.describe spec
  | Compile _ as c -> key c

let workloads = [ "grouppad_sweep"; "kernel_table"; "compile_suite" ]

(* One draw per (seed, figure, anchor); the committed seed keeps the
   anchor. *)
let draw ~seed ~salt ~width ~hi anchor =
  if seed = committed_seed || width <= 1 then anchor
  else
    let st = Random.State.make [| seed; Hashtbl.hash salt; anchor |] in
    min hi (anchor + Random.State.int st width)

let strategy s = E.Job.Strategy s

(* Figures 11 and 12: GROUPPAD and GROUPPAD+L2MAXPAD over problem sizes
   (three of figure 11's sizes 250, 280, .., 520), then fused EXPL nests
   1-2 with the Section 4 counts (three of figure 12's 250, 300, .., 700). *)
let grouppad_sweep ~seed =
  let fig11 = [ 250; 370; 490 ] and fig12 = [ 250; 450; 700 ] in
  let sweep name =
    List.concat_map
      (fun a ->
        let n = draw ~seed ~salt:("fig11" ^ name) ~width:30 ~hi:520 a in
        let p = E.Job.Registry { name; n = Some n } in
        [
          E.Job.simulate ~layout:(strategy L.Pipeline.Grouppad_l1) p;
          E.Job.simulate ~layout:(strategy L.Pipeline.Grouppad_l1_l2) p;
        ])
      fig11
  in
  (* The fusion-legality filter of figure 12 runs here, in set-up, as
     the bench harness runs it before submitting. *)
  let legal =
    Obs.with_span ~cat:"bench" "setup:fusion_legality" (fun () ->
        List.filter
          (fun n ->
            match L.Fusion.fuse_program (K.Livermore.expl n) 1 with
            | exception L.Fusion.Illegal _ -> false
            | _ -> true)
          (List.map (draw ~seed ~salt:"fig12" ~width:50 ~hi:700) fig12))
  in
  let count_layout = strategy L.Pipeline.Grouppad_l1 in
  let fused =
    List.concat_map
      (fun n ->
        let base = E.Job.Registry { name = "EXPL512"; n = Some n } in
        [
          E.Job.simulate
            ~count:(count_layout, E.Job.Nests [ 1; 2 ])
            ~layout:(strategy L.Pipeline.Grouppad_l1_l2) base;
          E.Job.simulate
            ~count:(count_layout, E.Job.Largest_body)
            ~layout:(strategy L.Pipeline.Grouppad_l1_l2)
            (E.Job.Fused { base; at = 1; max_shift = 4 });
        ])
      legal
  in
  sweep "EXPL512" @ sweep "SHAL512" @ fused

let elem = 8
let l1 = 16 * 1024
let l2 = 512 * 1024

(* Figure 13 (untiled, L1, 2xL1, 4xL1, L2 tiles) at n = 172, one of its
   sizes 100, 172, .., 388, and the tile-selection comparison (euc, LRW,
   TSS) at n = 100, all with the initial layout. *)
let fig13_n = 172
let tiles_n = 100

let matmul_tiles ~fig13_n ~tiles_n =
  let tiled n (t : L.Tile_size.tile) =
    E.Job.simulate ~layout:E.Job.Initial
      (E.Job.Tiled_matmul { n; h = t.L.Tile_size.height; w = t.L.Tile_size.width })
  in
  let pick f = Obs.with_span ~cat:"bench" "tile_size:select" f in
  let select ~cache ~cap n =
    pick (fun () ->
        L.Tile_size.select ~capacity_bytes:cap ~cache_bytes:cache ~elem
          ~col_elems:n ~rows:n ())
  in
  let fig13 =
    let n = fig13_n in
    E.Job.simulate ~layout:E.Job.Initial (E.Job.Matmul { n })
    :: List.map (tiled n)
         [
           select ~cache:l1 ~cap:l1 n;
           select ~cache:l2 ~cap:(2 * l1) n;
           select ~cache:l2 ~cap:(4 * l1) n;
           select ~cache:l2 ~cap:l2 n;
         ]
  in
  let tiles =
    let n = tiles_n in
    List.map (tiled n)
      [
        pick (fun () -> L.Tile_size.select ~cache_bytes:l1 ~elem ~col_elems:n ~rows:n ());
        pick (fun () -> L.Tile_size.lrw ~cache_bytes:l1 ~elem ~col_elems:n ~rows:n);
        pick (fun () -> L.Tile_size.tss ~cache_bytes:l1 ~elem ~col_elems:n ~rows:n);
      ]
  in
  fig13 @ tiles

(* Figure 9's problem sizes (the bench harness's [fast] sizes), and the
   registry default for the kernels figure 9 runs at their default. *)
let fig9_sizes =
  [
    ("ADI32", Some 128, 256); ("DOT256", None, 256_000); ("ERLE64", None, 64);
    ("EXPL512", Some 128, 512); ("IRR500K", Some 100_000, 500_000);
    ("JACOBI512", Some 128, 512); ("LINPACKD", Some 128, 256);
    ("SHAL512", Some 128, 512); ("APPBT", None, 64); ("APPLU", None, 64);
    ("APPSP", None, 64); ("BUK", Some 250_000, 1_000_000);
    ("CGM", Some 20_000, 75_000); ("EMBAR", Some 250_000, 1_000_000);
    ("FFTPDE", Some 65_536, 262_144); ("MGRID", None, 64); ("APSI", None, 128);
    ("FPPPP", None, 2048); ("HYDRO2D", Some 128, 512); ("SU2COR", None, 256);
    ("SWIM", Some 128, 512); ("TOMCATV", None, 257); ("TURB3D", None, 64);
    ("WAVE5", None, 512);
  ]

(* A held-out seed draws every kernel's size from [a, a + max 2 (a/32)). *)
let kernel_size ~seed ~salt name anchor =
  if seed = committed_seed then None
  else Some (draw ~seed ~salt:(salt ^ name) ~width:(max 2 (anchor / 32)) ~hi:max_int anchor)

let figure9 ~seed =
  List.concat_map
    (fun (name, fig9, default) ->
      let n =
        match kernel_size ~seed ~salt:"fig9" name (Option.value fig9 ~default) with
        | None -> fig9
        | some -> some
      in
      let p = E.Job.Registry { name; n } in
      List.map
        (fun s -> E.Job.simulate ~layout:(strategy s) p)
        [ L.Pipeline.Original; L.Pipeline.Pad_l1; L.Pipeline.Pad_multilevel ])
    fig9_sizes

let compile_suite ~seed =
  List.map
    (fun (name, _, default) ->
      Compile { name; n = kernel_size ~seed ~salt:"compile" name default })
    fig9_sizes

let cells ~seed workload =
  let sims l = List.map (fun s -> Sim s) l in
  match workload with
  | "grouppad_sweep" -> sims (grouppad_sweep ~seed)
  | "kernel_table" ->
      let fig13_n, tiles_n =
        if seed = committed_seed then (fig13_n, tiles_n)
        else
          let n = draw ~seed ~salt:"matmul" ~width:8 ~hi:400 tiles_n in
          (n, n)
      in
      sims (figure9 ~seed @ matmul_tiles ~fig13_n ~tiles_n)
  | "compile_suite" -> compile_suite ~seed
  | other -> invalid_arg ("unknown workload " ^ other)

(* The timed cells of [workload]: the committed sizes, whatever the seed. *)
let build workload = Array.of_list (cells ~seed:committed_seed workload)

(* A held-out seed's untimed cells of [workload], at drawn sizes; none for
   the committed seed. *)
let held_out ~seed workload =
  if seed = committed_seed then [||] else Array.of_list (cells ~seed workload)

(* A Table 1 kernel at size [n], or at its default size. *)
let build_kernel name n =
  let e = K.Registry.find name in
  match n with
  | None -> e.K.Registry.build ()
  | Some n -> (Option.get e.K.Registry.build_sized) n
