type t = {
  name : string;
  geometries : Level.geometry list;
  cost : Cost_model.t;
}

let ultrasparc =
  {
    name = "UltraSparc I (16K/32B L1, 512K/64B L2, direct-mapped)";
    geometries =
      [
        { Level.size = 16 * 1024; line = 32; assoc = 1 };
        { Level.size = 512 * 1024; line = 64; assoc = 1 };
      ];
    cost = Cost_model.ultrasparc;
  }

(* The 21164's on-chip L2 is a 96K 3-way cache; it is rounded to a
   direct-mapped 128K here so that every level is direct-mapped and a
   power of two, as the paper's analysis assumes. *)
let alpha21164 =
  {
    name = "Alpha 21164 style, direct-mapped (8K/128K/2M)";
    geometries =
      [
        { Level.size = 8 * 1024; line = 32; assoc = 1 };
        { Level.size = 128 * 1024; line = 64; assoc = 1 };
        { Level.size = 2 * 1024 * 1024; line = 64; assoc = 1 };
      ];
    cost = Cost_model.alpha21164;
  }

let with_associativity k t =
  {
    t with
    name = Printf.sprintf "%s, %d-way" t.name k;
    geometries = List.map (fun g -> { g with Level.assoc = k }) t.geometries;
  }

let s1 t =
  match t.geometries with
  | g :: _ -> g.Level.size
  | [] -> invalid_arg "Machine.s1: no levels"

let level_size t i = (List.nth t.geometries i).Level.size

let lmax t =
  List.fold_left (fun acc g -> max acc g.Level.line) 0 t.geometries

let level_line t i = (List.nth t.geometries i).Level.line

let n_levels t = List.length t.geometries
