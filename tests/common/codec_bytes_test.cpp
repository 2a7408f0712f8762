// Byte-exact fixtures for every on-disk and on-wire record format (test_common).
//
// The journal (checkpoints, shard manifests, the serve ledger) and the serve
// socket share one little-endian, CRC-framed byte discipline. These fixtures
// were recorded from the encoders and are checked in as hex: each test
// asserts that encoding a fixed value yields exactly the fixture bytes and
// that decoding the fixture gives the value back. A refactor of any codec
// that changes a single byte — and so orphans every journal, ledger or client
// already out there — fails here.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/journal.hpp"
#include "diagnosis/checkpoint.hpp"
#include "serve/accounting.hpp"
#include "serve/frame.hpp"
#include "serve/protocol.hpp"

namespace scandiag {
namespace {

// Journal header for digest 0x0123456789ABCDEF and setup info "fixture setup".
constexpr const char* kJournalHeaderHex =
    "21000000cfa87b59000053444a4c0100efcdab89674523010d00000066697874"
    "757265207365747570";

// FaultRecord with two counter deltas.
constexpr const char* kFaultRecordHex =
    "88776655443322110700000003000000000000000100000000000000efbeadde"
    "0df0feca020000000000050000000000000003000001000000000000";
constexpr const char* kShardMetaRecordHex =
    "01000000040000005a5a5a5aa5a5a5a50d0000007265703a7339353378343a77"
    "38";
constexpr const char* kSweepManifestRecordHex =
    "78695a4b3c2d1e0f112233445566778802000000280000000300000004000000"
    "73393533";

// A whole serve ledger: header frame, then ACCEPTED 1 and OK 1 record frames.
constexpr const char* kLedgerHex =
    "340000006695d1bd000053444a4c01005f872157b7442dbb200000007363616e"
    "646961672073657276652072657175657374206c6564676572207631"
    "0a000000d603e2c001000100000000000000"
    "0a000000d5b8d52b02000100000000000000";

constexpr const char* kInjectFaultRequestHex = "000003000000673137000000000000";
constexpr const char* kTesterLogRequestHex = "01000000000001000900000063656c6c732032390a";
constexpr const char* kDefectScenarioRequestHex =
    "02000000000001000000000008000000322c627269646765c100000000000000"
    "03000000";
constexpr const char* kDiagnoseReplyHex =
    "02002a0000000000000001000000000000000000e83f03000000080000000700"
    "00007061727469616c030000000500000009000000e8030000";
constexpr const char* kStatsReplyHex =
    "0100000000000000020000000000000003000000000000000400000000000000"
    "05000000000000000600000000000000";

std::string toHex(const std::string& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 0xF]);
  }
  return out;
}

std::string fromHex(const std::string& hex) {
  std::string out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

std::string tempPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::filesystem::remove(path);
  return path;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

void dump(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(CodecBytes, JournalHeaderFrame) {
  const std::string path = tempPath("codec_header.journal");
  { (void)JournalWriter::create(path, 0x0123456789ABCDEFull, "fixture setup"); }
  EXPECT_EQ(toHex(slurp(path)), kJournalHeaderHex);

  const std::string fixture = tempPath("codec_header_fixture.journal");
  dump(fixture, fromHex(kJournalHeaderHex));
  const JournalContents contents = readJournal(fixture);
  EXPECT_EQ(contents.setupDigest, 0x0123456789ABCDEFull);
  EXPECT_EQ(contents.setupInfo, "fixture setup");
  EXPECT_TRUE(contents.records.empty());
  EXPECT_FALSE(contents.truncatedTail);
}

TEST(CodecBytes, JournalRecordFrameEqualsServeFrame) {
  const std::string path = tempPath("codec_frames.journal");
  const std::string payload = "same bytes either way";
  {
    JournalWriter writer = JournalWriter::create(path, 0x0123456789ABCDEFull, "fixture setup");
    writer.append(0x21, payload);
  }
  const std::string bytes = slurp(path);
  const std::size_t headerSize = fromHex(kJournalHeaderHex).size();
  ASSERT_GT(bytes.size(), headerSize);
  EXPECT_EQ(bytes.substr(headerSize), serve::encodeFrame(0x21, payload));
}

TEST(CodecBytes, FaultRecord) {
  FaultRecord record;
  record.sweepId = 0x1122334455667788ull;
  record.faultIndex = 7;
  record.candidateCount = 3;
  record.actualCount = 1;
  record.verdictDigest = 0xCAFEF00DDEADBEEFull;
  record.counterDeltas = {{0, 5}, {3, 0x100}};
  EXPECT_EQ(toHex(encodeFaultRecord(record)), kFaultRecordHex);

  const FaultRecord back = decodeFaultRecord(fromHex(kFaultRecordHex));
  EXPECT_EQ(back.sweepId, record.sweepId);
  EXPECT_EQ(back.faultIndex, record.faultIndex);
  EXPECT_EQ(back.candidateCount, record.candidateCount);
  EXPECT_EQ(back.actualCount, record.actualCount);
  EXPECT_EQ(back.verdictDigest, record.verdictDigest);
  EXPECT_EQ(back.counterDeltas, record.counterDeltas);
}

TEST(CodecBytes, ShardMetaRecord) {
  ShardMetaRecord record;
  record.shardIndex = 1;
  record.shardCount = 4;
  record.baseDigest = 0xA5A5A5A55A5A5A5Aull;
  record.socSpec = "rep:s953x4:w8";
  EXPECT_EQ(toHex(encodeShardMetaRecord(record)), kShardMetaRecordHex);

  const ShardMetaRecord back = decodeShardMetaRecord(fromHex(kShardMetaRecordHex));
  EXPECT_EQ(back.shardIndex, record.shardIndex);
  EXPECT_EQ(back.shardCount, record.shardCount);
  EXPECT_EQ(back.baseDigest, record.baseDigest);
  EXPECT_EQ(back.socSpec, record.socSpec);
}

TEST(CodecBytes, SweepManifestRecord) {
  SweepManifestRecord record;
  record.sweepId = 0x0F1E2D3C4B5A6978ull;
  record.classHash = 0x8877665544332211ull;
  record.classOrdinal = 2;
  record.responseCount = 40;
  record.instanceCount = 3;
  record.className = "s953";
  EXPECT_EQ(toHex(encodeSweepManifestRecord(record)), kSweepManifestRecordHex);

  const SweepManifestRecord back = decodeSweepManifestRecord(fromHex(kSweepManifestRecordHex));
  EXPECT_EQ(back.sweepId, record.sweepId);
  EXPECT_EQ(back.classHash, record.classHash);
  EXPECT_EQ(back.classOrdinal, record.classOrdinal);
  EXPECT_EQ(back.responseCount, record.responseCount);
  EXPECT_EQ(back.instanceCount, record.instanceCount);
  EXPECT_EQ(back.className, record.className);
}

TEST(CodecBytes, LedgerAcceptedAndOkRecords) {
  const std::string path = tempPath("codec_ledger.journal");
  {
    serve::RequestAccounting accounting(path);
    accounting.accepted(1);
    accounting.terminal(1, serve::RequestOutcome::Ok);
  }
  EXPECT_EQ(toHex(slurp(path)), kLedgerHex);

  const std::string fixture = tempPath("codec_ledger_fixture.journal");
  dump(fixture, fromHex(kLedgerHex));
  const serve::ServeLedger ledger = serve::replayLedger(fixture);
  EXPECT_EQ(ledger.accepted, 1u);
  EXPECT_EQ(ledger.ok, 1u);
  EXPECT_EQ(ledger.aborted, 0u);
  EXPECT_TRUE(ledger.balanced());
  EXPECT_EQ(serve::RequestAccounting(fixture).nextRequestId(), 2u);
}

void expectSameRequest(const serve::DiagnoseRequest& a, const serve::DiagnoseRequest& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.gateName, b.gateName);
  EXPECT_EQ(a.stuckAt1, b.stuckAt1);
  EXPECT_EQ(a.logText, b.logText);
  EXPECT_EQ(a.defectSpec, b.defectSpec);
  EXPECT_EQ(a.defectSeed, b.defectSeed);
  EXPECT_EQ(a.defectIndex, b.defectIndex);
}

TEST(CodecBytes, DiagnoseRequestOfEachKind) {
  serve::DiagnoseRequest inject;
  inject.kind = serve::DiagnoseRequest::Kind::InjectFault;
  inject.gateName = "g17";
  inject.stuckAt1 = false;

  serve::DiagnoseRequest log;
  log.kind = serve::DiagnoseRequest::Kind::TesterLog;
  log.logText = "cells 29\n";

  serve::DiagnoseRequest defect;
  defect.kind = serve::DiagnoseRequest::Kind::DefectScenario;
  defect.defectSpec = "2,bridge";
  defect.defectSeed = 0xC1;
  defect.defectIndex = 3;

  const std::pair<const serve::DiagnoseRequest*, const char*> cases[] = {
      {&inject, kInjectFaultRequestHex},
      {&log, kTesterLogRequestHex},
      {&defect, kDefectScenarioRequestHex},
  };
  for (const auto& [request, hex] : cases) {
    EXPECT_EQ(toHex(serve::encodeDiagnoseRequest(*request)), hex);
    expectSameRequest(serve::decodeDiagnoseRequest(fromHex(hex)), *request);
  }
}

TEST(CodecBytes, DiagnoseReplyWithCandidates) {
  serve::DiagnoseReply reply;
  reply.status = serve::ReplyStatus::Deadline;
  reply.requestId = 42;
  reply.detected = true;
  reply.resolved = false;
  reply.confidence = 0.75;
  reply.partitionsUsed = 3;
  reply.partitionsTotal = 8;
  reply.candidateCells = {5, 9, 1000};
  reply.message = "partial";
  EXPECT_EQ(toHex(serve::encodeDiagnoseReply(reply)), kDiagnoseReplyHex);

  const serve::DiagnoseReply back = serve::decodeDiagnoseReply(fromHex(kDiagnoseReplyHex));
  EXPECT_EQ(back.status, reply.status);
  EXPECT_EQ(back.requestId, reply.requestId);
  EXPECT_EQ(back.detected, reply.detected);
  EXPECT_EQ(back.resolved, reply.resolved);
  EXPECT_EQ(back.confidence, reply.confidence);
  EXPECT_EQ(back.partitionsUsed, reply.partitionsUsed);
  EXPECT_EQ(back.partitionsTotal, reply.partitionsTotal);
  EXPECT_EQ(back.candidateCells, reply.candidateCells);
  EXPECT_EQ(back.message, reply.message);
}

TEST(CodecBytes, StatsReply) {
  serve::StatsReply stats;
  stats.accepted = 1;
  stats.ok = 2;
  stats.shed = 3;
  stats.degraded = 4;
  stats.aborted = 5;
  stats.framesRejected = 6;
  EXPECT_EQ(toHex(serve::encodeStatsReply(stats)), kStatsReplyHex);

  const serve::StatsReply back = serve::decodeStatsReply(fromHex(kStatsReplyHex));
  EXPECT_EQ(back.accepted, stats.accepted);
  EXPECT_EQ(back.ok, stats.ok);
  EXPECT_EQ(back.shed, stats.shed);
  EXPECT_EQ(back.degraded, stats.degraded);
  EXPECT_EQ(back.aborted, stats.aborted);
  EXPECT_EQ(back.framesRejected, stats.framesRejected);
}

}  // namespace
}  // namespace scandiag
