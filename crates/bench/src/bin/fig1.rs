//! Figure 1 at the `HETEROSPEC_SCENE` size: the text of
//! [`repro_bench::experiments::fig1`] on stdout and the image of
//! [`repro_bench::experiments::fig1_composite`] in
//! `target/experiments/fig1_composite.ppm`.

use repro_bench::experiments::{fig1, fig1_composite};
use std::path::Path;

fn main() -> std::io::Result<()> {
    repro_bench::print_experiment(repro_bench::scene_config(), |scene, out| {
        fig1(scene, out)?;
        let path = Path::new("target/experiments/fig1_composite.ppm");
        std::fs::create_dir_all(path.parent().expect("a directory"))?;
        std::fs::write(path, fig1_composite(scene))?;
        eprintln!("# wrote {}", path.display());
        Ok(())
    })
}
