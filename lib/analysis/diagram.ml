open Mlc_ir

(* Width of the cache box, in characters. *)
let width = 72

let render layout ~size ~line nest =
  let buf = Buffer.create 1024 in
  let dots = Arcs.dots layout ~size nest in
  let arcs = Arcs.arcs layout ~min_span:line nest in
  let scale pos = min (width - 1) (pos * width / size) in
  (* Short labels: a letter per distinct array (A, B, C, ...) plus the
     occurrence index within the nest. *)
  let array_tag =
    let tags = Hashtbl.create 8 in
    let next = ref 0 in
    fun arr ->
      match Hashtbl.find_opt tags arr with
      | Some t -> t
      | None ->
          let t = Char.chr (Char.code 'A' + (!next mod 26)) in
          incr next;
          Hashtbl.replace tags arr t;
          t
  in
  let label_of =
    let seen = Hashtbl.create 8 in
    fun (d : Arcs.dot) ->
      let arr = d.Arcs.ref_.Ref_.array in
      let k = Option.value ~default:0 (Hashtbl.find_opt seen arr) in
      Hashtbl.replace seen arr (k + 1);
      Printf.sprintf "%c%d" (array_tag arr) k
  in
  let labels = List.map (fun d -> (d.Arcs.ref_index, label_of d)) dots in
  (* Arc rows: draw each arc above the box on its own row. *)
  List.iteri
    (fun i arc ->
      let row = Bytes.make width ' ' in
      match List.find_opt (fun d -> d.Arcs.ref_index = arc.Arcs.trailing) dots with
      | None -> ()
      | Some td ->
          let p1 = scale td.Arcs.position in
          let p2_raw = (td.Arcs.position + arc.Arcs.span) mod size in
          let p2 = scale p2_raw in
          let preserved = Arcs.arc_preserved dots ~size arc in
          let ch = if preserved then '=' else '.' in
          let mark lo hi =
            for c = lo to hi do
              if c >= 0 && c < width then Bytes.set row c ch
            done
          in
          if p1 <= p2 then mark p1 p2
          else begin
            (* wrapped arc *)
            mark p1 (width - 1);
            mark 0 p2
          end;
          Bytes.set row (min (width - 1) (max 0 p1)) '\\';
          Bytes.set row (min (width - 1) (max 0 p2)) '/';
          Buffer.add_string buf
            (Printf.sprintf " %2d %s\n" (i + 1) (Bytes.to_string row)))
    arcs;
  (* The box with dots. *)
  let box = Bytes.make width '-' in
  List.iter
    (fun (d : Arcs.dot) -> Bytes.set box (scale d.Arcs.position) '*')
    dots;
  Buffer.add_string buf
    (Printf.sprintf "    |%s|  cache %dB\n" (Bytes.to_string box) size);
  (* Label line: place labels under their dots where space allows. *)
  let label_row = Bytes.make width ' ' in
  List.iter
    (fun (d : Arcs.dot) ->
      match List.assoc_opt d.Arcs.ref_index labels with
      | None -> ()
      | Some l ->
          let p = scale d.Arcs.position in
          String.iteri
            (fun k ch ->
              let c = p + k in
              if c < width && Bytes.get label_row c = ' ' then
                Bytes.set label_row c ch)
            l)
    dots;
  Buffer.add_string buf (Printf.sprintf "     %s\n" (Bytes.to_string label_row));
  (* Legend. *)
  List.iter
    (fun (d : Arcs.dot) ->
      match List.assoc_opt d.Arcs.ref_index labels with
      | None -> ()
      | Some l ->
          Buffer.add_string buf
            (Printf.sprintf "     %-4s %-20s pos %6d\n" l
               (Arcs.label d)
               d.Arcs.position))
    dots;
  List.iteri
    (fun i arc ->
      let name idx =
        match List.assoc_opt idx labels with Some l -> l | None -> string_of_int idx
      in
      let preserved = Arcs.arc_preserved dots ~size arc in
      Buffer.add_string buf
        (Printf.sprintf "     arc %d: %s -> %s span %dB %s\n" (i + 1)
           (name arc.Arcs.trailing) (name arc.Arcs.leading) arc.Arcs.span
           (if preserved then "PRESERVED" else "lost")))
    arcs;
  let conflicts = Arcs.severe_conflicts layout ~size ~line nest in
  Buffer.add_string buf
    (Printf.sprintf "     severe conflicts: %d\n" (List.length conflicts));
  Buffer.contents buf

let render_program layout ~size ~line program =
  let buf = Buffer.create 4096 in
  List.iteri
    (fun i nest ->
      Buffer.add_string buf (Printf.sprintf "nest %d:\n" i);
      Buffer.add_string buf (render layout ~size ~line nest))
    program.Program.nests;
  Buffer.contents buf
