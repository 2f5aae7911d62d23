package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import scala.collection.immutable.ListMap
import scala.jdk.CollectionConverters._
import com.fasterxml.jackson.databind.ObjectMapper
import com.fasterxml.jackson.module.scala.DefaultScalaModule

/** Command line: `--workload NAME --seed N --seconds S --trace 0|1
  * --out DIR`. Prints a few JSON lines (environment, sample counts,
  * and for traced runs the end-to-end numbers seen under tracing) and,
  * as the last line, `{"correct", "attempted", "failed", "metrics"}`:
  * end-to-end metrics untraced, per-layer metrics traced.
  */
object Main {

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def arg(name: String): String = opts.getOrElse(name, usage(s"missing --$name"))
    val workload = Workloads.byName(arg("workload")).getOrElse(
      usage(s"unknown workload; one of: ${Workloads.all.map(_.name).mkString(", ")}"))
    val seed = arg("seed").toLong
    val seconds = arg("seconds").toInt
    val traced = arg("trace") == "1"
    val out = arg("out")
    Files.createDirectories(Paths.get(out, "results"))

    val tracer = if (traced) new Tracer(200000) else null
    val bench = new Bench(workload, seed, seconds, tracer, out)
    bench.run()

    val env = environment(workload, seed, seconds, traced, bench)
    val metrics = if (traced) bench.perLayer else bench.endToEnd
    val correct = bench.failed == 0 && metrics.values.forall(m => !m.value.isNaN && !m.value.isInfinite)
    val lines = Seq(
      obj("env" -> env),
      obj("samples" -> bench.samples.toSeq, "info" -> bench.info.toSeq,
        "stage_wall_s" -> bench.stageWall.toSeq),
    ) ++ (if (traced) Seq(
      obj("traced_end_to_end" -> bench.endToEnd.toSeq.map { case (k, m) => k -> m.value }),
      obj("spans" -> Seq("kept" -> tracer.spansKept, "file" -> spansFile(out, workload.name)))) else Nil) ++
      (if (traced && workload.name == "point-skewed") Seq(obj("north_star_probe" -> probe(bench))) else Nil) :+
      obj("correct" -> correct, "attempted" -> bench.attempted, "failed" -> bench.failed,
        "metrics" -> metrics.toSeq.map { case (k, m) => k -> Seq("value" -> m.value, "unit" -> m.unit) })

    if (traced) tracer.write(spansFile(out, workload.name))
    val resultFile = Paths.get(out, "results", s"${workload.name}-seed$seed-trace${if (traced) 1 else 0}.json")
    Files.write(resultFile, lines.mkString("", "\n", "\n").getBytes(StandardCharsets.UTF_8))
    Files.write(Paths.get(resultFile.toString.stripSuffix(".json") + ".rounds.json"),
      obj(bench.roundValues.toSeq: _*).getBytes(StandardCharsets.UTF_8))
    lines.foreach(println)
    System.out.flush()
    sys.exit(0)
  }

  private def usage(msg: String): Nothing = {
    System.err.println(s"$msg\nusage: --workload NAME --seed N --seconds S --trace 0|1 --out DIR")
    sys.exit(2)
  }

  private def spansFile(out: String, name: String): String =
    Paths.get(out, s"$name.spans.tsv").toString

  /** The ROADMAP's north-star probe (Skewed, n = 200 000, N = 1 000,
    * 4 cores) beside this run, with the gap to each figure.
    */
  private def probe(b: Bench): Seq[(String, Any)] = {
    val reference = Seq(
      "point_mean_us" -> 2.1, "core.descent_us" -> 0.43, "core.leaf_predict_us" -> 0.28,
      "spatial.point_scan_us" -> 1.4, "spatial.point_blocks" -> 2.11,
      "kdb_point_mean_us" -> 0.69, "setup_s" -> 13.6, "core.levels" -> 4.47, "core.build.height" -> 7.0)
    val l = b.perLayer
    val here = Map(
      "point_mean_us" -> b.info("point_mean_us").asInstanceOf[Double],
      "core.descent_us" -> l("core.descent_ns").value / 1e3,
      "core.leaf_predict_us" -> l("core.leaf_predict_ns").value / 1e3,
      "spatial.point_scan_us" -> l("spatial.point_scan_ns").value / 1e3,
      "spatial.point_blocks" -> l("spatial.point_blocks").value,
      "kdb_point_mean_us" -> b.info("kdb_point_mean_us").asInstanceOf[Double],
      "setup_s" -> b.endToEnd("setup_s").value,
      "core.levels" -> l("core.levels").value,
      "core.build.height" -> l("core.build.height").value)
    Seq("reference_config" -> "Skewed n=200000 N=1000 B=100, 4 cores",
      "this_config" -> s"Skewed n=${Workloads.byName("point-skewed").get.n} N=1000 B=100") ++
      reference.map { case (k, ref) =>
        k -> Seq("reference" -> ref, "measured" -> here(k), "gap" -> (here(k) - ref))
      }
  }

  private def environment(w: Workload, seed: Long, seconds: Int, traced: Boolean,
                          b: Bench): Seq[(String, Any)] = {
    val rt = ManagementFactory.getRuntimeMXBean
    val s = Seeds(seed)
    Seq(
      "workload" -> w.name, "trace" -> traced, "seconds" -> seconds,
      "nproc" -> Runtime.getRuntime.availableProcessors,
      "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
      "heap_max_bytes" -> Runtime.getRuntime.maxMemory,
      "jvm_args" -> rt.getInputArguments.asScala.filter(_.startsWith("-X")).mkString(" "),
      "gc" -> ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getName).mkString(","),
      "spark_master" -> Seq("build" -> (if (w.sparkBuild) b.buildMaster else "none"), "scan" -> b.scanMaster), "spark_version" -> org.apache.spark.SPARK_VERSION,
      "dist" -> w.dist.name, "n" -> w.n, "N" -> w.cfg.N, "B" -> w.cfg.B, "k" -> Sizes.k,
      "build" -> (if (w.sparkBuild) "RsmiSpark.build+RsmiFormat.write" else "RsmiBuilder.build"),
      "setup_reps" -> Sizes.setupReps, "setup_warmup_n" -> math.max(w.n / 5, 2 * w.cfg.N + 1), "inserts" -> w.n / 2,
      "window_area" -> Sizes.windowArea,
      "query_sets" -> Seq("timed" -> sizes(Sizes.timed), "warmup" -> sizes(Sizes.warmup)),
      "seeds" -> Seq("run" -> s.run, "data" -> s.data, "queries" -> s.queries, "warmup" -> s.warmup, "inserts" -> s.inserts),
      "shares" -> Seq("point" -> Shares.point, "kdb" -> Shares.kdb,
        "window_knn" -> Shares.windowKnn), "scans_per_round" -> Sizes.scansPerRound,
      "warmup_rounds" -> Sizes.warmupRounds)
  }

  private def sizes(s: SetSizes): Seq[(String, Any)] =
    Seq("points" -> s.points, "windows" -> s.windows, "knn" -> s.knn, "scans" -> s.scans)

  // ---------------------------------------------------------------- JSON

  private val mapper = new ObjectMapper().registerModule(DefaultScalaModule)

  /** One JSON object per line; nested field lists become objects too. */
  private def obj(fields: (String, Any)*): String = mapper.writeValueAsString(tree(fields))

  private def tree(v: Any): Any = v match {
    case fields: Seq[_] if fields.nonEmpty && fields.forall {
        case (_: String, _) => true
        case _ => false
      } => ListMap(fields.map { case (k: String, x) => k -> tree(x) }: _*)
    case xs: Seq[_] => xs.map(tree)
    case d: Double if d.isNaN || d.isInfinite => null
    case other => other
  }
}
