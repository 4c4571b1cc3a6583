//===- suite_io_test.cpp - Suite export round trips -----------------------------==//

#include "synth/SuiteIO.h"

#include "enumerate/Candidates.h"
#include "litmus/FromExecution.h"
#include "litmus/Parser.h"
#include "models/ModelRegistry.h"
#include "models/X86Model.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

using namespace tmw;

namespace {

std::string slurp(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream Ss;
  Ss << In.rdbuf();
  return Ss.str();
}

class SuiteIoTest : public ::testing::Test {
protected:
  std::string Dir =
      (std::filesystem::temp_directory_path() / "tmw-suite-test").string();

  void TearDown() override {
    std::error_code Ec;
    std::filesystem::remove_all(Dir, Ec);
  }

  ForbidSuite suite() {
    X86Model Tm;
    std::unique_ptr<MemoryModel> Baseline =
        ModelRegistry::parse("x86/+baseline");
    Vocabulary V = Vocabulary::forArch(Arch::X86);
    return synthesizeForbid(Tm, *Baseline, V, 3, 120.0);
  }
};

TEST_F(SuiteIoTest, WritesOneFilePerTest) {
  ForbidSuite S = suite();
  ASSERT_FALSE(S.Tests.empty());
  SuiteExport E = writeSuite(Dir, "x86-forbid-3", S.Tests, true);
  ASSERT_TRUE(static_cast<bool>(E)) << E.Error;
  EXPECT_EQ(E.FilesWritten, S.Tests.size());
  unsigned Found = 0;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir))
    Found += Entry.path().extension() == ".litmus";
  EXPECT_EQ(Found, S.Tests.size());
}

TEST_F(SuiteIoTest, FilesCarryProvenanceAndParseBack) {
  ForbidSuite S = suite();
  ASSERT_FALSE(S.Tests.empty());
  ASSERT_TRUE(static_cast<bool>(writeSuite(Dir, "x86-forbid-3", S.Tests,
                                           true)));
  std::string Text = slurp(Dir + "/000.litmus");
  EXPECT_NE(Text.find("# suite: x86-forbid-3"), std::string::npos);
  EXPECT_NE(Text.find("forbidden"), std::string::npos);

  ParseResult R = parseProgram(Text);
  ASSERT_TRUE(static_cast<bool>(R)) << R.Error;
  // The parsed test keeps the model verdict of the original execution:
  // its postcondition is unreachable under x86+TM.
  X86Model Tm;
  EXPECT_FALSE(postconditionReachable(R.Prog, Tm));
  std::unique_ptr<MemoryModel> Baseline =
      ModelRegistry::parse("x86/+baseline");
  EXPECT_TRUE(postconditionReachable(R.Prog, *Baseline));
}

TEST_F(SuiteIoTest, RejectsUnwritableDirectory) {
  SuiteExport E = writeSuite("/proc/definitely/not/writable", "x", {}, true);
  // Either the create fails or zero files are written without error;
  // accept both spellings of "nothing happened", but never a crash.
  if (!E) {
    EXPECT_FALSE(E.Error.empty());
  }
}

} // namespace
