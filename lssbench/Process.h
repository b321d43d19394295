//===- Process.h - Child processes the benchmark starts ---------*- C++ -*-===//
///
/// \file
/// The benchmark starts two kinds of children: fresh copies of itself that
/// time the one-time setup, and the lssd daemon. Each child gets its stdout
/// on a pipe and SIGTERM if the benchmark dies first; the benchmark waits
/// for every child it starts.
///
//===----------------------------------------------------------------------===//

#ifndef LSSBENCH_PROCESS_H
#define LSSBENCH_PROCESS_H

#include <string>
#include <sys/types.h>
#include <vector>

namespace lssbench {

class ChildProcess {
public:
  ChildProcess() = default;
  ~ChildProcess(); ///< Kills and reaps a child still running.
  ChildProcess(const ChildProcess &) = delete;
  ChildProcess &operator=(const ChildProcess &) = delete;

  bool start(const std::vector<std::string> &Argv, std::string &Err);
  /// Reads one line of the child's stdout, waiting at most \p TimeoutMs.
  bool readLine(std::string &Line, int TimeoutMs);
  /// Reads the child's stdout to end of file.
  std::string readAll();
  /// Waits for exit. Returns the exit code (128 + signal when killed).
  int wait();
  void kill(int Signal);
  pid_t pid() const { return Pid; }

private:
  pid_t Pid = -1;
  int OutFd = -1;
  std::string Pending; ///< Bytes read past the last returned line.
};

} // namespace lssbench

#endif // LSSBENCH_PROCESS_H
