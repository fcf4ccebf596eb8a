//! `perfbench --workload campaign|validate|serve [--seed N] [--seconds S]
//! [--trace 0|1]`: run one workload of the paper-scale benchmark and
//! print its result object as the last line of standard output.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match mpass_perfbench::Options::parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    match mpass_perfbench::run(&opts) {
        Ok(report) => {
            for line in &report.notes {
                println!("# {line}");
            }
            println!(
                "# host probe: {:.1} ms before, {:.1} ms after",
                report.host_probe_ms.0, report.host_probe_ms.1
            );
            println!("{}", report.to_json());
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
