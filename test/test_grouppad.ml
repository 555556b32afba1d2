(* GROUPPAD against its specification.  [apply] scores every candidate
   pad of a variable in one sweep; the oracle below is the per-candidate
   rebuild it replaced, written with the public scorers [conflict_count]
   and [preserved_references].  Layouts must agree bit for bit (every
   array's base, pad_before and intra_pad), and so must the winning and
   runner-up keys of each [grouppad:score] decision instant.

   Case counts scale with the QCHECK_COUNT environment variable (the
   nightly CI job sets it to 2000). *)

open Mlc_ir
module Cs = Mlc_cachesim
module K = Mlc_kernels
module L = Locality
module Obs = Mlc_obs.Obs

(* The pre-incremental [Grouppad.apply]: for every variable in layout
   order, rebuild the layout at every candidate pad and score it from
   scratch.  The key is (conflicts, -preserved, pad); the smallest wins
   and the second smallest is the runner-up.  Returns the layout and, per
   variable, [(name, winner, runner-up)]. *)
let oracle_apply ~size ~line program layout =
  let step = max line (size / 128 / line * line) in
  let candidates =
    let rec go p acc = if p >= size then List.rev acc else go (p + step) (p :: acc) in
    go 0 []
  in
  let layout, decisions =
    List.fold_left
      (fun (layout, decisions) v ->
        let key pad =
          let candidate = Layout.set_pad_before layout v pad in
          ( L.Grouppad.conflict_count ~size ~line program candidate,
            -L.Grouppad.preserved_references ~size program candidate,
            pad )
        in
        match List.sort compare (List.map key candidates) with
        | [] -> (layout, decisions)
        | ((_, _, pad) as best) :: rest ->
            ( Layout.set_pad_before layout v pad,
              (v, best, List.nth_opt rest 0) :: decisions ))
      (layout, []) (Layout.array_names layout)
  in
  (layout, List.rev decisions)

(* [Grouppad.apply] with its decision instants read back into the
   oracle's [(name, winner, runner-up)] form. *)
let apply_decided ~size ~line program layout =
  let buf = Obs.Buf.create () in
  let result = Obs.with_buf buf (fun () -> L.Grouppad.apply ~size ~line program layout) in
  let decision (e : Obs.event) =
    let arg k =
      match List.assoc_opt k e.Obs.args with Some (`Int i) -> Some i | _ -> None
    in
    let key prefix =
      match (arg (prefix ^ "conflicts"), arg (prefix ^ "preserved"), arg (prefix ^ "pad")) with
      | Some c, Some p, Some pad -> Some (c, -p, pad)
      | _ -> None
    in
    match (List.assoc_opt "array" e.Obs.args, key "") with
    | Some (`Str v), Some best -> (v, best, key "runner_up_")
    | _ -> Alcotest.fail ("malformed decision instant " ^ e.Obs.name)
  in
  ( result,
    List.filter_map
      (fun (e : Obs.event) ->
        if e.Obs.kind = Obs.Instant && e.Obs.cat = "decision" then Some (decision e) else None)
      (Obs.Buf.events buf) )

let render (layout, decisions) =
  let key (c, p, pad) = Printf.sprintf "(%d,%d,%d)" c p pad in
  Format.asprintf "%a total=%d@.%s" Layout.pp layout (Layout.total_bytes layout)
    (String.concat "\n"
       (List.map
          (fun (v, best, runner_up) ->
            Printf.sprintf "%s: %s runner-up %s" v (key best)
              (Option.fold ~none:"none" ~some:key runner_up))
          decisions))

let l1 machine =
  match machine.Cs.Machine.geometries with
  | g :: _ -> (g.Cs.Level.size, g.Cs.Level.line)
  | [] -> invalid_arg "machine without cache levels"

(* GROUPPAD as the pipeline runs it: on L1, after intra-variable padding. *)
let check_identical machine label program layout =
  let size, line = l1 machine in
  let layout = L.Intra_pad.apply ~size ~line program layout in
  Alcotest.(check string)
    (Printf.sprintf "%s on %s" label machine.Cs.Machine.name)
    (render (oracle_apply ~size ~line program layout))
    (render (apply_decided ~size ~line program layout))

let machines = [ Cs.Machine.ultrasparc; Cs.Machine.alpha21164 ]

let sized name n =
  match (K.Registry.find name).K.Registry.build_sized with
  | Some f -> f n
  | None -> Alcotest.fail (name ^ " not size-parameterized")

let test_registry () =
  List.iter
    (fun (e : K.Registry.entry) ->
      let program = e.K.Registry.build () in
      List.iter
        (fun machine ->
          check_identical machine e.K.Registry.name program (Layout.initial program))
        machines)
    K.Registry.all

(* Figure 11: EXPL and SHAL over problem sizes 250..520. *)
let test_figure11_sizes () =
  List.iter
    (fun name ->
      List.iter
        (fun n ->
          let program = sized name n in
          check_identical Cs.Machine.ultrasparc
            (Printf.sprintf "%s n=%d" name n)
            program (Layout.initial program))
        (List.init 10 (fun i -> 250 + (30 * i))))
    [ "EXPL512"; "SHAL512" ]

(* Figure 12: EXPL with nests 1-2 fused, at every legal size 250..700. *)
let test_figure12_fused () =
  List.iter
    (fun n ->
      match L.Fusion.fuse_program ~max_shift:4 (sized "EXPL512" n) 1 with
      | exception L.Fusion.Illegal _ -> ()
      | program ->
          check_identical Cs.Machine.ultrasparc
            (Printf.sprintf "fused EXPL n=%d" n)
            program (Layout.initial program))
    (List.init 10 (fun i -> 250 + (50 * i)))

(* [program]'s packed layout with arbitrary pads before and inside its
   arrays, drawn round-robin from [pads]. *)
let padded program pads =
  List.fold_left
    (fun layout (i, v) ->
      let pad, intra = List.nth pads (i mod List.length pads) in
      Layout.set_intra_pad (Layout.set_pad_before layout v pad) v intra)
    (Layout.initial program)
    (List.mapi (fun i v -> (i, v)) (Layout.array_names (Layout.initial program)))

let gen_pads = QCheck.(list_of_size (Gen.return 16) (pair (int_range 0 3000) (int_range 0 5)))

let agrees ~size ~line program layout =
  render (oracle_apply ~size ~line program layout)
  = render (apply_decided ~size ~line program layout)

(* Arbitrary starting pads (not line multiples, so alignment rounding
   differs between arrays) and intra-variable pads. *)
let prop_random_layouts =
  QCheck.Test.make ~name:"random pads" ~count:(Qcheck_env.count 40)
    QCheck.(triple (int_range 0 3) (int_range 40 160) gen_pads)
    (fun (kernel, n, pads) ->
      let name = List.nth [ "EXPL512"; "SHAL512"; "JACOBI512"; "TOMCATV" ] kernel in
      let program = sized name n in
      let size, line = l1 (List.nth machines (n mod 2)) in
      agrees ~size ~line program (padded program pads))

(* Layouts mixing 4- and 8-byte arrays: the alignment of a 4-byte array
   after an 8-byte one, and the reverse, must move with the pad.  BUK,
   CGM and IRR500K mix the two sizes as written; the stencils, whose
   nests have many more dots and arcs, get 4-byte elements on the arrays
   [narrow] picks. *)
let prop_mixed_elem_sizes =
  QCheck.Test.make ~name:"mixed element sizes" ~count:(Qcheck_env.count 40)
    QCheck.(
      quad (int_range 0 6) (int_range 40 600) (list_of_size (Gen.return 16) bool) gen_pads)
    (fun (kernel, n, narrow, pads) ->
      let name =
        List.nth [ "BUK"; "CGM"; "IRR500K"; "EXPL512"; "SHAL512"; "JACOBI512"; "TOMCATV" ] kernel
      in
      let program = sized name (if kernel < 3 then 5 * n else n / 4) in
      let program =
        if kernel < 3 then program
        else
          {
            program with
            Program.arrays =
              List.mapi
                (fun i (d : Array_decl.t) ->
                  if List.nth narrow (i mod 16) then { d with Array_decl.elem_size = 4 } else d)
                program.Program.arrays;
          }
      in
      let size, line = l1 (List.nth machines (n mod 2)) in
      agrees ~size ~line program (padded program pads))

(* Small caches, lines up to the whole cache: conflict windows that wrap
   around the cache, and lines over half of it, where every pair of
   arrays conflicts whatever the pad. *)
let prop_small_caches =
  QCheck.Test.make ~name:"small caches and long lines" ~count:(Qcheck_env.count 40)
    QCheck.(quad (int_range 0 3) (int_range 6 12) (int_range 3 12) gen_pads)
    (fun (kernel, size_bits, line_bits, pads) ->
      let name = List.nth [ "EXPL512"; "SHAL512"; "JACOBI512"; "TOMCATV" ] kernel in
      let program = sized name 40 in
      let size = 1 lsl size_bits in
      agrees ~size ~line:(1 lsl min size_bits line_bits) program (padded program pads))

(* One decision instant per variable, in layout order: the pad [apply]
   kept, its score, and a runner-up with a worse key. *)
let test_decision_instants () =
  let program = sized "EXPL512" 250 in
  let size, line = l1 Cs.Machine.ultrasparc in
  let layout = L.Intra_pad.apply ~size ~line program (Layout.initial program) in
  let buf = Obs.Buf.create () in
  let result = Obs.with_buf buf (fun () -> L.Grouppad.apply ~size ~line program layout) in
  let decisions =
    List.filter
      (fun (e : Obs.event) -> e.Obs.kind = Obs.Instant && e.Obs.cat = "decision")
      (Obs.Buf.events buf)
  in
  let names = Layout.array_names result in
  Alcotest.(check (list string)) "one per array, in layout order"
    (List.map (fun v -> "grouppad:score " ^ v) names)
    (List.map (fun (e : Obs.event) -> e.Obs.name) decisions);
  let arg (e : Obs.event) k =
    match List.assoc_opt k e.Obs.args with
    | Some (`Int i) -> i
    | _ -> Alcotest.fail (Printf.sprintf "%s: no int arg %s" e.Obs.name k)
  in
  let key e prefix =
    (arg e (prefix ^ "conflicts"), -arg e (prefix ^ "preserved"), arg e (prefix ^ "pad"))
  in
  List.iter2
    (fun v e ->
      Alcotest.(check int) (v ^ ": winning pad kept") (Layout.pad_before result v) (arg e "pad");
      Alcotest.(check bool) (v ^ ": winner beats runner-up") true
        (compare (key e "") (key e "runner_up_") < 0))
    names decisions;
  (* The last variable's winning score is the final layout's. *)
  let last = List.nth decisions (List.length decisions - 1) in
  Alcotest.(check int) "final conflicts"
    (L.Grouppad.conflict_count ~size ~line program result)
    (arg last "conflicts");
  Alcotest.(check int) "final preserved"
    (L.Grouppad.preserved_references ~size program result)
    (arg last "preserved")

(* [Fusion.optimize_program] on every multi-nest Table 1 kernel: the log
   and the fused program (digest of its source text, or of its IR when it
   has gathers) as they were when every candidate fusion re-ran GROUPPAD
   on the unfused program. *)
let fusion_golden =
  [
    ( "ADI32", 2, "a81223989c49d3e46935d340b76e7d0c",
      [
        "nests 0,1: Fusion: outer bounds differ";
      ] );
    ( "ERLE64", 2, "9804ecfc925e4060c35249f9c4e401a4",
      [
        "nests 0,1: Fusion: outer loop must have constant unit-step bounds";
      ] );
    ( "EXPL512", 4, "7b0e412960949bd6e3c2922b36e4d0ec",
      [
        "nests 0,1: fused (shift 1), model cost 648 -> 504";
        "nests 0,1: Fusion: outer bounds differ";
        "nests 1,2: Fusion: outer bounds differ";
        "nests 2,3: Fusion: outer bounds differ";
      ] );
    ( "JACOBI512", 3, "0e503aa8db0939fc3ae2c1803ff47090",
      [
        "nests 0,1: fused (shift 1), model cost 200 -> 100";
        "nests 0,1: Fusion: outer bounds differ";
        "nests 1,2: Fusion: outer bounds differ";
      ] );
    ( "LINPACKD", 2, "dd58d08a9b7b1bc55e5a1b4f5e362de5",
      [
        "nests 0,1: shape mismatch, skipped";
      ] );
    ( "SHAL512", 4, "6937778425164a8dc747eab45022d6ae",
      [
        "nests 0,1: fused (shift 1), model cost 880 -> 704";
        "nests 0,1: Fusion: outer bounds differ";
        "nests 1,2: Fusion: outer bounds differ";
        "nests 2,3: Fusion: outer bounds differ";
      ] );
    ( "APPBT", 6, "659ee8bf5171e8b66d4a9f52462ce2a6",
      [
        "nests 0,1: Fusion: outer bounds differ";
        "nests 1,2: fused (shift 1), model cost 300 -> 174";
        "nests 1,2: Fusion: outer bounds differ";
        "nests 2,3: Fusion: outer bounds differ";
        "nests 3,4: Fusion: outer bounds differ";
        "nests 4,5: Fusion: outer bounds differ";
      ] );
    ( "APPLU", 4, "adf740752ef53268d4c8cacd87c8fa02",
      [
        "nests 0,1: Fusion: outer bounds differ";
        "nests 1,2: Fusion: outer loop must have constant unit-step bounds";
        "nests 2,3: Fusion: outer loop must have constant unit-step bounds";
      ] );
    ( "APPSP", 2, "f07c7b3dfa1348ac17c726531ed54c5e",
      [
        "nests 0,1: fused (shift 0), model cost 300 -> 200";
        "nests 0,1: Fusion: outer bounds differ";
      ] );
    ( "BUK", 3, "863993706b6b856dffa581c19dc001cd",
      [
        "nests 0,1: no legal shift, skipped";
        "nests 1,2: Fusion: outer bounds differ";
      ] );
    ( "FFTPDE", 2, "f097e62fbab924a77655066aeee7c2e8",
      [
        "nests 0,1: shape mismatch, skipped";
      ] );
    ( "MGRID", 4, "b164201cea6d96fd5d93c7568696378c",
      [
        "nests 0,1: fused (shift 1), model cost 274 -> 174";
        "nests 0,1: Fusion: outer bounds differ";
        "nests 1,2: Fusion: outer bounds differ";
        "nests 2,3: Fusion: outer bounds differ";
        "nests 3,4: fused (shift 0), model cost 200 -> 150";
      ] );
    ( "APSI", 2, "6fa82d9633c028ae9f02eb1a22c1ec8f",
      [
        "nests 0,1: Fusion: outer bounds differ";
      ] );
    ( "HYDRO2D", 1, "0c347180d68a8574bd3042623bb28eb9",
      [
        "nests 0,1: fused (shift 0), model cost 550 -> 400";
        "nests 0,1: fused (shift 0), model cost 812 -> 424";
      ] );
    ( "SWIM", 4, "8b810b7a7a6755de6aeb607b56348dcc",
      [
        "nests 0,1: fused (shift 1), model cost 880 -> 704";
        "nests 0,1: Fusion: outer bounds differ";
        "nests 1,2: Fusion: outer bounds differ";
        "nests 2,3: Fusion: outer bounds differ";
      ] );
    ( "TOMCATV", 3, "812c6b26e58e5a3eec167648318079d6",
      [
        "nests 0,1: fused (shift 0), model cost 556 -> 356";
        "nests 0,1: fused (shift 2), model cost 556 -> 374";
        "nests 0,1: Fusion: outer bounds differ";
        "nests 1,2: Fusion: outer bounds differ";
      ] );
    ( "TURB3D", 2, "e3d7c90b066f607af6609d5af949cfb2",
      [
        "nests 0,1: no legal shift, skipped";
      ] );
    ( "WAVE5", 2, "877acddcd884e95a2f6c5fecfd3933d3",
      [
        "nests 0,1: shape mismatch, skipped";
      ] );
  ]

let program_digest p =
  let text =
    match Pretty.program p with
    | text -> text
    | exception Invalid_argument _ -> "ir:" ^ Marshal.to_string p [ Marshal.No_sharing ]
  in
  Digest.to_hex (Digest.string text)

let test_fusion_unchanged () =
  List.iter
    (fun (name, nests, digest, log) ->
      let program = (K.Registry.find name).K.Registry.build () in
      let fused, got = L.Fusion.optimize_program Cs.Machine.ultrasparc program in
      Alcotest.(check (list string)) (name ^ " log") log got;
      Alcotest.(check int) (name ^ " nests") nests (List.length fused.Program.nests);
      Alcotest.(check string) (name ^ " program") digest (program_digest fused))
    fusion_golden

let () =
  Alcotest.run "grouppad"
    [
      ( "identity",
        [
          Alcotest.test_case "registry x machines" `Quick test_registry;
          Alcotest.test_case "figure 11 sizes" `Quick test_figure11_sizes;
          Alcotest.test_case "figure 12 fused EXPL" `Quick test_figure12_fused;
          QCheck_alcotest.to_alcotest prop_random_layouts;
          QCheck_alcotest.to_alcotest prop_mixed_elem_sizes;
          QCheck_alcotest.to_alcotest prop_small_caches;
        ] );
      ("provenance", [ Alcotest.test_case "decision instants" `Quick test_decision_instants ]);
      ("fusion", [ Alcotest.test_case "optimize_program unchanged" `Quick test_fusion_unchanged ]);
    ]
