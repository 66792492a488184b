(* Independent audit of a placement: the GB x hop objective, per-VHO
   disk use and per-(window, link) load, recomputed from the placement's
   copy sets and routes alone, then compared with what the backend
   reported. Shares no code with the engines' point accounting. *)

module I = Vod_placement.Instance
module Sol = Vod_placement.Solution

type t = {
  cost : float;
  peak_use : float;  (* largest row usage / capacity; > 1 is over-use *)
}

let recompute (inst : I.t) (sol : Sol.t) =
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if inst.I.placement_weight <> 0.0 then fail "placement_weight is not audited";
  let nw = I.n_windows inst in
  let usage = Array.make (I.n_rows inst) 0.0 in
  let cost = ref 0.0 in
  let demand = inst.I.demand in
  let server ~video ~vho =
    match Hashtbl.find_opt sol.Sol.routes.(video) vho with
    | Some s when Array.mem s sol.Sol.stored.(video) -> Some s
    | Some s ->
        fail "video %d: route %d -> %d targets a VHO without a copy" video vho s;
        None
    | None ->
        fail "video %d: no route for demand at VHO %d" video vho;
        None
  in
  for video = 0 to sol.Sol.n_videos - 1 do
    let v = Vod_workload.Catalog.video inst.I.catalog video in
    let size = Vod_workload.Video.size_gb v in
    let rate = Vod_workload.Video.rate_mbps v in
    if Array.length sol.Sol.stored.(video) = 0 then fail "video %d has no copy" video;
    Array.iter
      (fun i ->
        let r = I.disk_row inst i in
        usage.(r) <- usage.(r) +. size)
      sol.Sol.stored.(video);
    Array.iter
      (fun (vho, a) ->
        match server ~video ~vho with
        | Some s -> cost := !cost +. (size *. a *. I.cost inst ~src:s ~dst:vho)
        | None -> ())
      demand.Vod_workload.Demand.a.(video);
    for w = 0 to nw - 1 do
      Array.iter
        (fun (vho, conc) ->
          match server ~video ~vho with
          | Some s when s <> vho ->
              Array.iter
                (fun l ->
                  let r = I.link_row inst ~window:w ~link:l in
                  usage.(r) <- usage.(r) +. (rate *. conc))
                (Vod_topology.Paths.path_links inst.I.paths ~src:s ~dst:vho)
          | Some _ | None -> ())
        demand.Vod_workload.Demand.f.(w).(video)
    done
  done;
  let caps = I.capacities inst in
  let peak_use = ref 0.0 in
  Array.iteri (fun r u -> peak_use := Float.max !peak_use (u /. caps.(r))) usage;
  ({ cost = !cost; peak_use = !peak_use }, List.rev !problems)

let close ~tol a b = Float.abs (a -. b) <= tol *. Float.max 1.0 (Float.abs b)

(* The recomputed figures, and every disagreement between them and the
   reported numbers plus the bound check ([] when the placement checks
   out). *)
let check (inst : I.t) (sol : Sol.t) =
  let audit, problems = recompute inst sol in
  let violation = Float.max 0.0 (audit.peak_use -. 1.0) in
  let extra = ref [] in
  if not (close ~tol:1e-6 audit.cost sol.Sol.objective) then
    extra :=
      Printf.sprintf "objective: reported %.6f, recomputed %.6f" sol.Sol.objective
        audit.cost
      :: !extra;
  if not (close ~tol:1e-6 violation sol.Sol.max_violation) then
    extra :=
      Printf.sprintf "violation: reported %.8f, recomputed %.8f"
        sol.Sol.max_violation violation
      :: !extra;
  if not (sol.Sol.lower_bound <= audit.cost *. (1.0 +. 1e-9)) then
    extra :=
      Printf.sprintf "lower bound %.6f exceeds cost %.6f" sol.Sol.lower_bound
        audit.cost
      :: !extra;
  (audit, problems @ List.rev !extra)
