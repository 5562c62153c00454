(* Table 3: Cash overhead versus input size, for 2D FFT, Gaussian
   elimination, and matrix multiplication. The paper's claim: Cash's
   absolute overhead is independent of the data-set size, so the relative
   overhead shrinks as inputs grow. Paper sizes were 64..512; the
   simulator sweeps 16..96 (the largest costs ~100M simulated cycles) —
   the trend, not the absolute sizes, is the result. *)

let sizes = [ 16; 32; 64; 128 ]

let programs =
  [
    ("2D FFT", fun n -> Workloads.Micro.fft2d ~n ());
    ("Gaussian", fun n -> Workloads.Micro.gaussian ~n ());
    ("Matrix", fun n -> Workloads.Micro.matmul ~n ());
  ]

let run ?(sizes = sizes) () =
  let rows =
    List.map
      (fun (name, make) ->
        name
        :: List.map
             (fun n ->
               let c =
                 Runner.compare_backends ~cash:(Core.cash_n 4) (make n)
               in
               Report.pct (Runner.cash_overhead c))
             sizes)
      programs
  in
  Report.make
    ~title:"Table 3: Cash overhead vs input size (4 segment registers)"
    ~headers:("Program" :: List.map string_of_int sizes)
    ~rows
    ~notes:
      [
        "paper (sizes 64-512): FFT 3.9->0.001%, Gaussian 5.7->0.3%, Matrix \
         2.2->0.1% — relative cost decreases with size.";
      ]
    ()
