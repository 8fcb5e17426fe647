type alternative = Two_sided | Less | Greater
type result = { statistic : float; pvalue : float; df : float }

(* Shot-budget policy shared by Verify / Characterize / State_tomo. It
   lives here (not in core) because tomography depends on stats but not
   on core, and both must agree on the type. *)
type sequential = { alpha : float; beta : float; max_shots : int }
type budget = [ `Fixed of int | `Sequential of sequential ]

let clamp01 p = Float.max 0. (Float.min 1. p)

(* ----------------------- survival functions ----------------------- *)

let chi2_sf x df =
  if df <= 0. then invalid_arg "Tests.chi2_sf: non-positive df";
  if x <= 0. then 1. else Special.gammainc_q (df /. 2.) (x /. 2.)

(* two-tailed probability P(|T_df| > t) = I_x(df/2, 1/2), x = df/(df+t^2) *)
let t_two_tail t df =
  if df <= 0. then invalid_arg "Tests.t_sf: non-positive df";
  let t2 = t *. t in
  Special.betainc (df /. 2.) 0.5 (df /. (df +. t2))

let t_sf t df =
  let half = 0.5 *. t_two_tail t df in
  if t >= 0. then half else 1. -. half

let t_pvalue alternative t df =
  clamp01
    (match alternative with
    | Two_sided -> t_two_tail t df
    | Greater -> t_sf t df
    | Less -> 1. -. t_sf t df)

(* ----------------------------- t-tests ----------------------------- *)

let t_one_sample ?(alternative = Two_sided) ~mu xs =
  let n = Array.length xs in
  if n < 2 then invalid_arg "Tests.t_one_sample: need at least 2 samples";
  let nf = float_of_int n in
  let m = Describe.mean xs and v = Describe.variance xs in
  if v <= 0. then invalid_arg "Tests.t_one_sample: zero variance";
  let t = (m -. mu) /. sqrt (v /. nf) in
  let df = nf -. 1. in
  { statistic = t; pvalue = t_pvalue alternative t df; df }

let t_two_sample ?(alternative = Two_sided) ?(equal_var = false) xs ys =
  let n1 = Array.length xs and n2 = Array.length ys in
  if n1 < 2 || n2 < 2 then
    invalid_arg "Tests.t_two_sample: need at least 2 samples per side";
  let n1f = float_of_int n1 and n2f = float_of_int n2 in
  let m1 = Describe.mean xs and m2 = Describe.mean ys in
  let v1 = Describe.variance xs and v2 = Describe.variance ys in
  if v1 <= 0. && v2 <= 0. then
    invalid_arg "Tests.t_two_sample: both samples have zero variance";
  let t, df =
    if equal_var then
      let df = n1f +. n2f -. 2. in
      let sp2 = (((n1f -. 1.) *. v1) +. ((n2f -. 1.) *. v2)) /. df in
      let se = sqrt (sp2 *. ((1. /. n1f) +. (1. /. n2f))) in
      ((m1 -. m2) /. se, df)
    else
      let a = v1 /. n1f and b = v2 /. n2f in
      let se2 = a +. b in
      (* Welch–Satterthwaite effective df *)
      let df =
        se2 *. se2
        /. ((a *. a /. (n1f -. 1.)) +. (b *. b /. (n2f -. 1.)))
      in
      ((m1 -. m2) /. sqrt se2, df)
  in
  { statistic = t; pvalue = t_pvalue alternative t df; df }

(* --------------------------- chi-square ---------------------------- *)

let chi2_gof ?(ddof = 0) ~expected observed =
  let k = Array.length observed in
  if k < 2 then invalid_arg "Tests.chi2_gof: need at least 2 categories";
  if Array.length expected <> k then
    invalid_arg "Tests.chi2_gof: observed/expected length mismatch";
  let stat = ref 0. in
  for i = 0 to k - 1 do
    let e = expected.(i) in
    if e <= 0. then invalid_arg "Tests.chi2_gof: non-positive expected count";
    let d = observed.(i) -. e in
    stat := !stat +. (d *. d /. e)
  done;
  let df = float_of_int (k - 1 - ddof) in
  if df <= 0. then invalid_arg "Tests.chi2_gof: non-positive df";
  { statistic = !stat; pvalue = chi2_sf !stat df; df }

(* ----------------------- Kolmogorov–Smirnov ------------------------ *)

(* Asymptotic Kolmogorov survival function Q(lambda) =
   2 sum_{k>=1} (-1)^{k-1} exp (-2 k^2 lambda^2). *)
let kolmogorov_sf lambda =
  if lambda <= 0. then 1.
  else begin
    let sum = ref 0. and sign = ref 1. in
    (try
       for k = 1 to 100 do
         let kf = float_of_int k in
         let term = exp (-2. *. kf *. kf *. lambda *. lambda) in
         sum := !sum +. (!sign *. term);
         sign := -. !sign;
         if term < 1e-16 *. Float.abs !sum || term < 1e-300 then raise Exit
       done
     with Exit -> ());
    clamp01 (2. *. !sum)
  end

(* Exact P(D_n < d) by the Marsaglia–Tsang–Wang matrix method (JSS 2003):
   an (2k-1)^2 matrix H with k = ceil (n d), h = k - n d; the answer is
   n!/n^n (H^n)_{k,k}, with power-of-2 exponent tracking to avoid
   overflow. Cost O(m^3 log n) — fine for the n <= 140 regime where the
   asymptotic tail is visibly wrong. *)
let ks_cdf_exact n d =
  let nf = float_of_int n in
  let k = int_of_float (ceil (nf *. d)) in
  if d >= 1. then 1.
  else if k <= 0 then 0.
  else begin
    let m = (2 * k) - 1 in
    let h = float_of_int k -. (nf *. d) in
    let hh = Array.make_matrix m m 0. in
    for i = 0 to m - 1 do
      for j = 0 to m - 1 do
        if i - j + 1 >= 0 then hh.(i).(j) <- 1.
      done
    done;
    for i = 0 to m - 1 do
      hh.(i).(0) <- hh.(i).(0) -. (h ** float_of_int (i + 1));
      hh.(m - 1).(i) <- hh.(m - 1).(i) -. (h ** float_of_int (m - i))
    done;
    hh.(m - 1).(0) <-
      hh.(m - 1).(0)
      +. (if (2. *. h) -. 1. > 0. then ((2. *. h) -. 1.) ** float_of_int m
          else 0.);
    for i = 0 to m - 1 do
      for j = 0 to m - 1 do
        if i - j + 1 > 0 then
          for g = 1 to i - j + 1 do
            hh.(i).(j) <- hh.(i).(j) /. float_of_int g
          done
      done
    done;
    (* H^n by square-and-multiply, rescaling when entries overflow *)
    let mat_mul a b =
      let out = Array.make_matrix m m 0. in
      for i = 0 to m - 1 do
        for l = 0 to m - 1 do
          let ail = a.(i).(l) in
          if ail <> 0. then
            for j = 0 to m - 1 do
              out.(i).(j) <- out.(i).(j) +. (ail *. b.(l).(j))
            done
        done
      done;
      out
    in
    let scale mat e =
      if mat.(k - 1).(k - 1) > 1e140 then begin
        Array.iter
          (fun row ->
            Array.iteri (fun j x -> row.(j) <- x *. 1e-140) row)
          mat;
        e + 140
      end
      else e
    in
    let rec power mat p =
      if p = 1 then (mat, 0)
      else begin
        let half, e = power mat (p / 2) in
        let sq = mat_mul half half in
        let e = 2 * e in
        let e = scale sq e in
        if p land 1 = 0 then (sq, e)
        else begin
          let out = mat_mul sq mat in
          let e = scale out e in
          (out, e)
        end
      end
    in
    let hn, e_q = power hh n in
    let s = ref hn.(k - 1).(k - 1) in
    let e = ref e_q in
    (* multiply by n!/n^n factor-by-factor, rescaling on underflow *)
    for i = 1 to n do
      s := !s *. float_of_int i /. nf;
      if !s < 1e-140 then begin
        s := !s *. 1e140;
        e := !e - 140
      end
    done;
    clamp01 (!s *. (10. ** float_of_int !e))
  end

let ks_exact_limit = 140

let ks_one_sample ~cdf xs =
  let n = Array.length xs in
  if n < 1 then invalid_arg "Tests.ks_one_sample: empty sample";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let nf = float_of_int n in
  let d = ref 0. in
  for i = 0 to n - 1 do
    let f = cdf sorted.(i) in
    let d_plus = (float_of_int (i + 1) /. nf) -. f in
    let d_minus = f -. (float_of_int i /. nf) in
    d := Float.max !d (Float.max d_plus d_minus)
  done;
  let d = !d in
  let pvalue =
    if n <= ks_exact_limit then 1. -. ks_cdf_exact n d
    else
      (* Stephens small-sample correction to the asymptotic law *)
      let en = sqrt nf in
      kolmogorov_sf ((en +. 0.12 +. (0.11 /. en)) *. d)
  in
  { statistic = d; pvalue = clamp01 pvalue; df = nf }

(* Exact two-sample tail by lattice path counting (no ties): the number
   of interleavings of n xs and m ys whose empirical-CDF gap stays below
   d, over C(n+m, n), computed as a rolling DP in floats normalized so
   the full count is 1. *)
let ks2_exact_pvalue n m d =
  let nf = float_of_int n and mf = float_of_int m in
  (* paths.(j) = (number of admissible paths to (i, j)) / C(i+j, j),
     maintained as probabilities to stay in float range *)
  let inside i j =
    Float.abs ((float_of_int i /. nf) -. (float_of_int j /. mf))
    < d -. 1e-12
  in
  let prev = Array.make (m + 1) 0. in
  prev.(0) <- 1.;
  for j = 1 to m do
    prev.(j) <- (if inside 0 j then prev.(j - 1) else 0.)
  done;
  let cur = Array.make (m + 1) 0. in
  for i = 1 to n do
    cur.(0) <- (if inside i 0 then prev.(0) else 0.);
    for j = 1 to m do
      cur.(j) <-
        (if inside i j then cur.(j - 1) +. prev.(j) else 0.)
    done;
    Array.blit cur 0 prev 0 (m + 1)
  done;
  (* prev.(m) holds the raw admissible-path count (n*m <= 10^4 keeps it
     well inside float range); divide by C(n+m, n) via log-gamma *)
  let log_total =
    Special.lgamma (nf +. mf +. 1.)
    -. Special.lgamma (nf +. 1.)
    -. Special.lgamma (mf +. 1.)
  in
  clamp01 (1. -. (prev.(m) *. exp (-.log_total)))

let has_ties xs ys =
  let all = Array.append xs ys in
  Array.sort compare all;
  let tied = ref false in
  for i = 1 to Array.length all - 1 do
    if all.(i) = all.(i - 1) then tied := true
  done;
  !tied

let ks2_exact_max_nm = 10_000

let ks_two_sample xs ys =
  let n = Array.length xs and m = Array.length ys in
  if n < 1 || m < 1 then invalid_arg "Tests.ks_two_sample: empty sample";
  let sx = Array.copy xs and sy = Array.copy ys in
  Array.sort compare sx;
  Array.sort compare sy;
  let nf = float_of_int n and mf = float_of_int m in
  let d = ref 0. in
  let i = ref 0 and j = ref 0 in
  while !i < n && !j < m do
    let x = sx.(!i) and y = sy.(!j) in
    if x <= y then incr i;
    if y <= x then incr j;
    let gap =
      Float.abs ((float_of_int !i /. nf) -. (float_of_int !j /. mf))
    in
    d := Float.max !d gap
  done;
  let d = !d in
  let pvalue =
    if n * m <= ks2_exact_max_nm && not (has_ties xs ys) then
      ks2_exact_pvalue n m d
    else
      let en = nf *. mf /. (nf +. mf) in
      let sen = sqrt en in
      kolmogorov_sf ((sen +. 0.12 +. (0.11 /. sen)) *. d)
  in
  { statistic = d; pvalue = clamp01 pvalue; df = nf *. mf /. (nf +. mf) }
