// Tests for TimelineRecorder: the fold over flight-recorder events and
// its refusal of incomplete logs, and its exports — CSV, the ASCII Gantt
// chart, and the round/epoch bookkeeping the Chrome trace exporter relies
// on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "sim/recorder.h"
#include "test_util.h"

namespace dsp {
namespace {

using testing::make_independent_job;
using testing::RoundRobinScheduler;

EngineParams fast_params() {
  EngineParams p;
  p.period = 1 * kSecond;
  p.epoch = 500 * kMillisecond;
  return p;
}

Engine small_engine(RoundRobinScheduler& sched, std::size_t node_count = 2) {
  JobSet jobs;
  jobs.push_back(make_independent_job(0, 4, 1000.0, 0, 60 * kSecond));
  return Engine(ClusterSpec::uniform(node_count, 1800.0, 2.0, 2),
                std::move(jobs), sched, nullptr, fast_params());
}

/// One small run, folded from its events.
TimelineRecorder record_run(std::size_t node_count = 2) {
  RoundRobinScheduler sched;
  Engine engine = small_engine(sched, node_count);
  return testing::run_recorded(engine).timeline;
}

TEST(RecorderFoldTest, RejectsWrappedRing) {
  // A ring of 8 keeps only the run's last 8 events: the fold must refuse
  // the partial timeline and name seq 0 as the first one missing.
  RoundRobinScheduler sched;
  Engine engine = small_engine(sched);
  obs::EventLog log(8);
  engine.set_event_log(&log);
  engine.run();
  ASSERT_GT(log.accepted(), 8u);

  const TimelineFoldResult fold = TimelineRecorder::from_events(log.snapshot());
  EXPECT_FALSE(fold.ok());
  EXPECT_NE(fold.error.find("expected seq 0,"), std::string::npos)
      << fold.error;
  EXPECT_TRUE(fold.timeline.intervals().empty());
}

TEST(RecorderFoldTest, RejectsSeqGap) {
  RoundRobinScheduler sched;
  Engine engine = small_engine(sched);
  obs::EventLog log;
  engine.set_event_log(&log);
  engine.run();
  std::vector<obs::Event> events = log.snapshot();
  ASSERT_TRUE(TimelineRecorder::from_events(events).ok());
  ASSERT_GT(events.size(), 6u);

  events.erase(events.begin() + 5);
  const TimelineFoldResult fold = TimelineRecorder::from_events(events);
  EXPECT_FALSE(fold.ok());
  EXPECT_NE(fold.error.find("expected seq 5, found seq 6"), std::string::npos)
      << fold.error;
}

TEST(RecorderFoldTest, ClampsOutOfRangePayloads) {
  // Payloads of a parsed file are untrusted doubles: a NaN overhead reads
  // as none, and round sizes clamp instead of converting out of range.
  const std::vector<obs::Event> events = {
      {.seq = 0, .kind = obs::EventKind::kScheduleRound, .a = 1e300, .b = -1},
      {.seq = 1, .kind = obs::EventKind::kTaskDispatch, .task = 0, .node = 0,
       .a = std::nan("")},
      {.time = kSecond, .seq = 2, .kind = obs::EventKind::kTaskFinish,
       .task = 0, .node = 0},
  };
  const TimelineFoldResult fold = TimelineRecorder::from_events(events);
  ASSERT_TRUE(fold.ok()) << fold.error;
  ASSERT_EQ(fold.timeline.intervals().size(), 1u);
  EXPECT_EQ(fold.timeline.intervals()[0].kind, IntervalKind::kRun);
  EXPECT_EQ(fold.timeline.intervals()[0].duration(), kSecond);
  ASSERT_EQ(fold.timeline.rounds().size(), 1u);
  EXPECT_EQ(fold.timeline.rounds()[0].jobs, std::size_t{1} << 53);
  EXPECT_EQ(fold.timeline.rounds()[0].placements, 0u);
}

TEST(RecorderCsvTest, HeaderAndOneRowPerInterval) {
  const TimelineRecorder recorder = record_run();
  ASSERT_FALSE(recorder.intervals().empty());

  std::ostringstream os;
  recorder.write_csv(os);
  const std::string csv = os.str();

  EXPECT_EQ(csv.find("task,node,kind,begin_us,end_us,outcome\n"), 0u);
  const auto rows = static_cast<std::size_t>(
      std::count(csv.begin(), csv.end(), '\n'));
  EXPECT_EQ(rows, recorder.intervals().size() + 1);  // header + intervals
  EXPECT_NE(csv.find(",run,"), std::string::npos);
  EXPECT_NE(csv.find("finished"), std::string::npos);
}

TEST(RecorderCsvTest, RowsMatchIntervalFields) {
  const TimelineRecorder recorder = record_run();
  std::ostringstream os;
  recorder.write_csv(os);
  std::istringstream in(os.str());
  std::string line;
  std::getline(in, line);  // header
  for (const auto& iv : recorder.intervals()) {
    ASSERT_TRUE(std::getline(in, line));
    std::ostringstream expect;
    expect << iv.task << ',' << iv.node << ',' << to_string(iv.kind) << ','
           << iv.begin << ',' << iv.end;
    EXPECT_EQ(line.rfind(expect.str(), 0), 0u) << line;
  }
}

TEST(RecorderGanttTest, OneRowPerNodeWithMarks) {
  const TimelineRecorder recorder = record_run(2);
  const std::string gantt = recorder.render_gantt(2, 40);

  EXPECT_NE(gantt.find("node  0 |"), std::string::npos);
  EXPECT_NE(gantt.find("node  1 |"), std::string::npos);
  // Productive work shows up as '#'.
  EXPECT_NE(gantt.find('#'), std::string::npos);
  // Footer carries the time span.
  EXPECT_NE(gantt.find(".."), std::string::npos);
}

TEST(RecorderGanttTest, EmptyTimelineRenders) {
  const TimelineRecorder recorder;
  EXPECT_EQ(recorder.render_gantt(3), "(empty timeline)\n");
}

TEST(RecorderRoundsTest, RecordsRoundsAndEpochs) {
  const TimelineRecorder recorder = record_run();
  // The engine fires at least the initial scheduling round, and epochs
  // tick every 500 ms while work is pending.
  ASSERT_FALSE(recorder.rounds().empty());
  EXPECT_EQ(recorder.schedule_rounds(), recorder.rounds().size());
  for (std::size_t i = 1; i < recorder.rounds().size(); ++i)
    EXPECT_GE(recorder.rounds()[i].time, recorder.rounds()[i - 1].time);
  for (std::size_t i = 1; i < recorder.epochs().size(); ++i)
    EXPECT_GT(recorder.epochs()[i], recorder.epochs()[i - 1]);
}

}  // namespace
}  // namespace dsp
